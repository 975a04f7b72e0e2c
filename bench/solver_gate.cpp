// Solver regression gate (ctest: solver_gate; tools/run_tier1.sh solver).
//
// Guards the incremental-resolve pipeline against regressions on one sp
// and one cg run of the ilan scheduler: counter invariant (resolves =
// full_builds + cap_updates + skipped + coalesced), cap_updates > 0, hit
// rate >= ILAN_SOLVER_MIN_HIT (default 0.8), and events/s at or above
// ILAN_SOLVER_MIN_EVPS. The events/s default is per-kernel: 1.5x the
// pre-optimization baselines recorded in DESIGN.md §13 (sp 84.5k ->
// 126750, cg 99.7k -> 149550); setting ILAN_SOLVER_MIN_EVPS applies one
// absolute floor to both kernels, 0 disables the check.
//
// events/s is a wall-clock figure, so it is measured, not sampled: after
// kWarmup discarded runs, kReps runs of the same seed (one at a time, on
// this thread) each give one sample, and the floor gates their median. The
// raw samples, the median, the median absolute deviation and the build
// type are printed, so a failure shows whether the whole distribution sat
// below the floor or one run was unlucky. The counters are deterministic,
// so they are checked on the first run only.
//
// Wall-clock floors are meaningless under sanitizers (10-20x slowdowns),
// so the events/s check is skipped in ASan/TSan builds — the structural
// checks still run, and tools/run_tier1.sh solver adds ILAN_SOLVER_CHECK=1
// equivalence runs per sanitizer on top.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "obs/env.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ILAN_GATE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ILAN_GATE_SANITIZED 1
#endif
#endif
#ifndef ILAN_GATE_SANITIZED
#define ILAN_GATE_SANITIZED 0
#endif
#ifndef ILAN_BUILD_TYPE
#define ILAN_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ilan;

constexpr int kWarmup = 1;
constexpr int kReps = 5;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void harness_gate(const char* kernel, double min_hit, double default_min_evps) {
  const double min_evps =
      obs::parse_env_double("ILAN_SOLVER_MIN_EVPS", default_min_evps, 0.0, 1e12);
  std::printf("solver_gate: harness (%s)\n", kernel);
  kernels::KernelOptions opts;
  opts.timesteps = 3;
  std::vector<double> evps;
  for (int i = 0; i < kWarmup + kReps; ++i) {
    const auto r = bench::run_once(kernel, "ilan", 42, opts);
    if (!r.ok()) {
      std::printf("  [FAIL] run_once(%s) failed: %s\n", kernel, r.error.c_str());
      ++failures;
      return;
    }
    if (i == 0) {
      const auto& s = r.solver;
      std::printf(
          "  resolves=%llu full_builds=%llu cap_updates=%llu skipped=%llu coalesced=%llu "
          "hit=%.4f events=%llu\n",
          static_cast<unsigned long long>(s.resolves),
          static_cast<unsigned long long>(s.full_builds),
          static_cast<unsigned long long>(s.cap_updates),
          static_cast<unsigned long long>(s.skipped),
          static_cast<unsigned long long>(s.coalesced), s.hit_rate(),
          static_cast<unsigned long long>(r.events_fired));
      check(s.resolves == s.full_builds + s.cap_updates + s.skipped + s.coalesced,
            "counter invariant: resolves = full_builds + cap_updates + skipped + coalesced");
      check(s.cap_updates > 0, "steady-state kernel produces incremental cap_updates");
      check(s.hit_rate() >= min_hit, "cache hit rate holds the floor");
    }
    if (i >= kWarmup) {
      evps.push_back(r.host_s > 0.0 ? static_cast<double>(r.events_fired) / r.host_s : 0.0);
    }
  }
  const double med = median(evps);
  std::vector<double> dev;
  for (const double e : evps) dev.push_back(std::fabs(e - med));
  std::printf("  events/s samples (%d warm-up run(s) discarded, build %s):", kWarmup,
              ILAN_BUILD_TYPE);
  for (const double e : evps) std::printf(" %.0f", e);
  std::printf("\n  events/s median=%.0f mad=%.0f floor=%.0f\n", med, median(dev), min_evps);
  if (ILAN_GATE_SANITIZED || min_evps <= 0.0) {
    std::printf("  [skip] events/s floor (sanitized build or floor disabled)\n");
  } else {
    check(med >= min_evps, "median events/s holds the floor");
  }
}

}  // namespace

int main() {
  const double min_hit = obs::parse_env_double("ILAN_SOLVER_MIN_HIT", 0.8, 0.0, 1.0);

  // Floors are 1.5x the pre-optimization events/s baselines (DESIGN.md §13).
  harness_gate("sp", min_hit, 126'750.0);
  harness_gate("cg", min_hit, 149'550.0);

  if (failures > 0) {
    std::printf("solver_gate: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("solver_gate: all checks passed\n");
  return 0;
}
