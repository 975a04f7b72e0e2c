// Observability report: the metrics-registry view of every scheduler.
//
// Part 1 — per (benchmark, scheduler), the merged ILAN_METRICS registry of a
// short series: steal split (intra-node / cross-node / rescue), PTT activity
// (probes, locks, re-explorations), deque occupancy, distributor stealable
// share and fault counters, next to the simulated time they explain.
//
// Part 2 — solver cache effectiveness from the same series: how the
// bandwidth-resolve pipeline served each cell's resolves (full rebuilds vs
// in-place cap updates vs skips/coalesces, tombstone compactions) and the
// resulting hit rate — the incremental-resolve health check next to the
// scheduler behavior it pays for.
//
// Part 3 — the steal-policy contrast that pins the instrumentation to the
// paper's semantics: the same kernel under a ManualScheduler with
// steal_policy=full must show cross-node steals, and under strict (no
// faults, so no escalation) must show exactly zero. The process exits
// nonzero when the contrast fails, so this doubles as an acceptance gate.
//
// Env: ILAN_REPORT_RUNS (default 2), ILAN_SCHED for the Part 1 scheduler
// list, plus the usual harness knobs.
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>

#include "sched/schedulers.hpp"
#include "harness.hpp"
#include "ilan_verify/verify.hpp"
#include "kernels/kernels.hpp"
#include "obs/env.hpp"
#include "obs/metrics.hpp"
#include "rt/team.hpp"
#include "trace/table.hpp"

using namespace ilan;

namespace {

std::int64_t cval(const obs::MetricsRegistry& m, std::string_view name) {
  const auto* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

double hmean(const obs::MetricsRegistry& m, std::string_view name) {
  const auto* h = m.find_histogram(name);
  return h != nullptr ? h->mean() : 0.0;
}

struct Contrast {
  std::int64_t intra = 0;
  std::int64_t cross = 0;
};

// One fixed-configuration run with a metrics registry attached; returns the
// steal split the run produced.
Contrast contrast_run(const std::string& kernel, rt::StealPolicy policy,
                      std::uint64_t seed, const kernels::KernelOptions& opts) {
  rt::Machine machine(bench::paper_machine(seed));
  obs::MetricsRegistry metrics;
  machine.set_metrics(&metrics);
  rt::LoopConfig cfg;       // all threads, all nodes
  cfg.steal_policy = policy;
  // Everything stealable: under kFull a drained node may raid any victim,
  // so end-of-loop imbalance surfaces as cross-node steals; under kStrict
  // the same tail stays home, which is exactly the contrast we gate on.
  core::IlanParams params;
  params.stealable_fraction = 1.0;
  sched::ManualScheduler scheduler(cfg, params);
  rt::Team team(machine, scheduler);
  const auto program = kernels::make_kernel(kernel, machine, opts);
  (void)program.run(team);
  Contrast c;
  c.intra = cval(metrics, "rt.steal.intra_node");
  c.cross = cval(metrics, "rt.steal.cross_node");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_schedulers_requested(argc, argv)) return bench::list_schedulers_main();
  if (bench::list_topologies_requested(argc, argv)) return bench::list_topologies_main();
  const int runs = obs::parse_env_int("ILAN_REPORT_RUNS", 2, 1, 1000);
  auto opts = bench::env_kernel_options();
  if (std::getenv("ILAN_BENCH_TIMESTEPS") == nullptr) opts.timesteps = 3;
  // The whole report runs with metrics on; the scope restores the caller's
  // setting (including absence) on exit.
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");

  std::cout << "== observability report (" << runs << " run(s)/cell) ==\n\n";

  // Environment preamble: the semantic-analysis rule set this tree is held
  // to (same output as `ilan-verify --list`), so a pasted report records
  // which static guarantees were active alongside the numbers.
  std::cout << "== ilan-verify rule set ==\n";
  for (const auto& rule : verify::rules()) {
    std::cout << "  " << rule.name << "  " << rule.description << "\n";
  }
  std::cout << "\n";
  trace::Table table({"benchmark", "scheduler", "time_s", "tasks", "steal_i",
                      "steal_x", "rescue", "probes", "locks", "reexpl",
                      "deque_avg", "stealable", "faults"});
  trace::Table solver({"benchmark", "scheduler", "resolves", "full", "cap_upd",
                       "skip", "coal", "compact", "reclaimed", "hit_rate"});
  for (const auto& k : bench::benchmarks()) {
    for (const std::string& sched : bench::env_sched_list()) {
      const auto series = bench::run_many(k, sched, runs, /*base_seed=*/77, opts);
      const obs::MetricsRegistry m = series.metrics_totals();
      const std::int64_t resolves = cval(m, "mem.solver.resolves");
      const std::int64_t hits = cval(m, "mem.solver.cap_updates") +
                                cval(m, "mem.solver.skipped") +
                                cval(m, "mem.solver.coalesced");
      solver.add_row({k, sched, std::to_string(resolves),
                      std::to_string(cval(m, "mem.solver.full_builds")),
                      std::to_string(cval(m, "mem.solver.cap_updates")),
                      std::to_string(cval(m, "mem.solver.skipped")),
                      std::to_string(cval(m, "mem.solver.coalesced")),
                      std::to_string(cval(m, "mem.solver.compactions")),
                      std::to_string(cval(m, "mem.solver.flows_reclaimed")),
                      trace::Table::fmt(resolves > 0 ? static_cast<double>(hits) /
                                                           static_cast<double>(resolves)
                                                     : 0.0,
                                        4)});
      table.add_row({k, sched,
                     trace::Table::fmt(series.time_summary().mean, 4),
                     std::to_string(cval(m, "rt.tasks_executed")),
                     std::to_string(cval(m, "rt.steal.intra_node")),
                     std::to_string(cval(m, "rt.steal.cross_node")),
                     std::to_string(cval(m, "rt.steal.rescue")),
                     std::to_string(cval(m, "ptt.probe")),
                     std::to_string(cval(m, "ptt.lock")),
                     std::to_string(cval(m, "ptt.reexplore")),
                     trace::Table::fmt(hmean(m, "rt.deque.occupancy"), 2),
                     std::to_string(cval(m, "core.dist.stealable_tasks")),
                     std::to_string(cval(m, "fault.applies"))});
    }
  }
  table.print(std::cout);

  std::cout << "\n== solver cache effectiveness ==\n\n";
  solver.print(std::cout);

  // Steal-policy contrast (acceptance gate): full must migrate work across
  // nodes somewhere; strict must never (no faults are armed here, so the
  // escalation path that may legally cross nodes under strict stays cold).
  std::cout << "\n== steal-policy contrast (ManualScheduler, fixed config) ==\n\n";
  trace::Table contrast({"benchmark", "policy", "steal_i", "steal_x"});
  bool any_full_cross = false;
  bool strict_clean = true;
  for (const auto& k : bench::benchmarks()) {
    const Contrast full = contrast_run(k, rt::StealPolicy::kFull, /*seed=*/42, opts);
    const Contrast strict = contrast_run(k, rt::StealPolicy::kStrict, /*seed=*/42, opts);
    any_full_cross = any_full_cross || full.cross > 0;
    strict_clean = strict_clean && strict.cross == 0;
    contrast.add_row({k, "full", std::to_string(full.intra), std::to_string(full.cross)});
    contrast.add_row(
        {k, "strict", std::to_string(strict.intra), std::to_string(strict.cross)});
  }
  contrast.print(std::cout);
  std::cout << "\nfull policy crossed nodes somewhere: "
            << (any_full_cross ? "yes" : "NO (FAIL)")
            << "\nstrict policy never crossed nodes:   "
            << (strict_clean ? "yes" : "NO (FAIL)") << "\n";
  return any_full_cross && strict_clean ? 0 : 1;
}
