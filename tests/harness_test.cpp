// Tests of the shared experiment harness, most importantly that the
// run_many worker pool is invisible in the results: simulation outputs are
// bit-for-bit identical no matter how many host threads produced them.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness.hpp"

namespace {

using namespace ilan;

kernels::KernelOptions small_opts() {
  kernels::KernelOptions opts;
  opts.timesteps = 2;
  opts.size_factor = 0.25;
  return opts;
}

void expect_bit_identical(const bench::Series& a, const bench::Series& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& ra = a.runs[i];
    const auto& rb = b.runs[i];
    // Exact equality on purpose: each run is a deterministic function of
    // its seed, so host-side parallelism must not perturb a single bit.
    EXPECT_EQ(ra.total_s, rb.total_s) << "run " << i;
    EXPECT_EQ(ra.avg_threads, rb.avg_threads) << "run " << i;
    EXPECT_EQ(ra.overhead_s, rb.overhead_s) << "run " << i;
    EXPECT_EQ(ra.steals_local, rb.steals_local) << "run " << i;
    EXPECT_EQ(ra.steals_remote, rb.steals_remote) << "run " << i;
    EXPECT_EQ(ra.local_bytes, rb.local_bytes) << "run " << i;
    EXPECT_EQ(ra.remote_bytes, rb.remote_bytes) << "run " << i;
    EXPECT_EQ(ra.final_configs, rb.final_configs) << "run " << i;
    EXPECT_EQ(ra.events_fired, rb.events_fired) << "run " << i;
    EXPECT_EQ(ra.solver.resolves, rb.solver.resolves) << "run " << i;
    EXPECT_EQ(ra.solver.full_builds, rb.solver.full_builds) << "run " << i;
    EXPECT_EQ(ra.solver.cap_updates, rb.solver.cap_updates) << "run " << i;
    EXPECT_EQ(ra.solver.skipped, rb.solver.skipped) << "run " << i;
    EXPECT_EQ(ra.solver.coalesced, rb.solver.coalesced) << "run " << i;
    EXPECT_EQ(ra.solver.compactions, rb.solver.compactions) << "run " << i;
    EXPECT_EQ(ra.solver.flows_reclaimed, rb.solver.flows_reclaimed) << "run " << i;
  }
}

TEST(Harness, ParallelRunManyMatchesSequentialBitForBit) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  const auto opts = small_opts();

  setenv("ILAN_BENCH_JOBS", "1", 1);
  const auto seq = bench::run_many("cg", "ilan", 4, 7, opts);
  setenv("ILAN_BENCH_JOBS", "4", 1);
  const auto par = bench::run_many("cg", "ilan", 4, 7, opts);
  // More workers than runs must also be harmless.
  setenv("ILAN_BENCH_JOBS", "16", 1);
  const auto over = bench::run_many("cg", "ilan", 4, 7, opts);
  unsetenv("ILAN_BENCH_JOBS");

  expect_bit_identical(seq, par);
  expect_bit_identical(seq, over);
}

TEST(Harness, RunManySeedsFollowRunIndex) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  const auto opts = small_opts();
  setenv("ILAN_BENCH_JOBS", "2", 1);
  const auto s = bench::run_many("ft", "baseline", 3, 42, opts);
  unsetenv("ILAN_BENCH_JOBS");
  ASSERT_EQ(s.runs.size(), 3u);
  // runs[i] must be the run for seed 42 + 1000*(i+1), independent of which
  // worker executed it.
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const auto solo =
        bench::run_once("ft", "baseline", 42 + 1000ull * (i + 1), opts);
    EXPECT_EQ(s.runs[i].total_s, solo.total_s) << "run " << i;
    EXPECT_EQ(s.runs[i].final_configs, solo.final_configs) << "run " << i;
  }
}

TEST(Harness, SeriesAggregatesCoverAllRuns) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  const auto opts = small_opts();
  const auto s = bench::run_many("ft", "baseline", 2, 9, opts);
  EXPECT_GT(s.host_s, 0.0);
  EXPECT_EQ(s.total_events_fired(), s.runs[0].events_fired + s.runs[1].events_fired);
  const auto t = s.solver_totals();
  EXPECT_EQ(t.resolves, s.runs[0].solver.resolves + s.runs[1].solver.resolves);
  EXPECT_EQ(t.resolves, t.full_builds + t.cap_updates + t.skipped + t.coalesced);
  EXPECT_GT(t.resolves, 0u);
  EXPECT_EQ(s.ok_count(), 2);
  EXPECT_EQ(s.failed_count(), 0);
}

// The point of the incremental-resolve work: a steady-state kernel must
// serve the vast majority of its resolves in place on the persistent
// network (cap_updates or skipped, not full_builds). Guards against the
// from-scratch behaviour coming back: full_builds ~= resolves with
// cap_updates == 0, as the capture in BENCH_harness.json showed before the
// persistent network existed.
TEST(Harness, SteadyStateResolvesStayIncremental) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  const auto r = bench::run_once("sp", "ilan", 42, small_opts());
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& t = r.solver;
  EXPECT_EQ(t.resolves, t.full_builds + t.cap_updates + t.skipped + t.coalesced);
  EXPECT_GT(t.cap_updates, 0u);
  // Full rebuilds are only the initial build plus tombstone compactions.
  EXPECT_EQ(t.full_builds, 1u + t.compactions);
  EXPECT_GE(t.hit_rate(), 0.8) << "full_builds=" << t.full_builds
                               << " resolves=" << t.resolves;
}

TEST(Harness, FaultedRunsAreBitIdenticalAcrossJobs) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  setenv("ILAN_FAULTS", "storm", 1);
  const auto opts = small_opts();
  setenv("ILAN_BENCH_JOBS", "1", 1);
  const auto seq = bench::run_many("cg", "ilan", 3, 7, opts);
  setenv("ILAN_BENCH_JOBS", "4", 1);
  const auto par = bench::run_many("cg", "ilan", 3, 7, opts);
  unsetenv("ILAN_BENCH_JOBS");
  unsetenv("ILAN_FAULTS");
  expect_bit_identical(seq, par);
  for (const auto& r : seq.runs) {
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.faults_applied, 0);
  }
}

TEST(Harness, WatchdogFailuresAreQuarantinedNotThrown) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  setenv("ILAN_WATCHDOG", "0.000000001", 1);
  const auto s = bench::run_many("cg", "ilan", 2, 7, small_opts());
  unsetenv("ILAN_WATCHDOG");
  ASSERT_EQ(s.runs.size(), 2u);
  for (const auto& r : s.runs) {
    EXPECT_EQ(r.status, bench::RunStatus::kWatchdog);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error.empty());
    // A watchdog hit is deterministic: re-running the same seed cannot
    // pass, so it is never retried.
    EXPECT_EQ(r.attempts, 1);
  }
  EXPECT_EQ(s.ok_count(), 0);
  EXPECT_EQ(s.failed_count(), 2);
}

TEST(Harness, SeriesBreakdownSplitsFailuresByStatus) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  bench::Series s;
  bench::RunResult ok1;
  ok1.attempts = 1;
  bench::RunResult wd;
  wd.status = bench::RunStatus::kWatchdog;
  wd.attempts = 3;
  bench::RunResult err;
  err.status = bench::RunStatus::kError;
  err.attempts = 2;
  s.runs = {ok1, wd, err};
  EXPECT_EQ(s.ok_count(), 1);
  EXPECT_EQ(s.failed_count(), 2);
  EXPECT_EQ(s.watchdog_count(), 1);
  EXPECT_EQ(s.error_count(), 1);
  EXPECT_EQ(s.watchdog_count() + s.error_count(), s.failed_count());
  EXPECT_EQ(s.retry_attempts(), 3);  // (3-1) + (2-1)
}

// Satellite: a fault realization that trips the watchdog on attempt 1 must
// succeed on a retry (attempt-salted realization), with the series
// statistics built from the successful attempt only and the retry volume
// recorded for BENCH json (Series::retry_attempts()).
TEST(Harness, WatchdogUnderFaultsRetriesWithResaltedRealization) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  setenv("ILAN_FAULTS", "storm", 1);
  const auto opts = small_opts();

  // The storm realization is seed-dependent, so hunt for a seed whose
  // attempt-1 runtime exceeds its attempt-2 runtime by a usable margin and
  // place the watchdog deadline between the two.
  std::uint64_t seed = 0;
  double t1 = 0.0, t2 = 0.0;
  for (std::uint64_t cand = 1042; cand < 1042 + 40 * 1000ull; cand += 1000) {
    const auto a1 = bench::run_once("cg", "ilan", cand, opts, /*attempt=*/1);
    const auto a2 = bench::run_once("cg", "ilan", cand, opts, /*attempt=*/2);
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a2.ok());
    if (a1.total_s > a2.total_s * 1.02) {
      seed = cand;
      t1 = a1.total_s;
      t2 = a2.total_s;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed with a slower attempt-1 realization found";
  // Attempt 1 must be bit-compatible with the historical (attempt-less)
  // entry point; attempt 2 is a different realization of the same spec.
  const auto legacy = bench::run_once("cg", "ilan", seed, opts);
  const auto salted = bench::run_once("cg", "ilan", seed, opts, /*attempt=*/2);
  EXPECT_EQ(legacy.event_digest,
            bench::run_once("cg", "ilan", seed, opts, /*attempt=*/1).event_digest);
  EXPECT_NE(legacy.event_digest, salted.event_digest);

  const double wd = 0.5 * (t1 + t2);
  setenv("ILAN_WATCHDOG", std::to_string(wd).c_str(), 1);
  setenv("ILAN_BENCH_RETRIES", "2", 1);
  // base_seed is chosen so run 0's derived seed (base + 1000) is `seed`.
  const auto s = bench::run_many("cg", "ilan", 1, seed - 1000, opts);
  unsetenv("ILAN_BENCH_RETRIES");
  unsetenv("ILAN_WATCHDOG");
  unsetenv("ILAN_FAULTS");

  ASSERT_EQ(s.runs.size(), 1u);
  const auto& r = s.runs[0];
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 2);  // watchdog on attempt 1, pass on attempt 2
  EXPECT_EQ(r.total_s, t2);  // statistics come from the surviving attempt
  EXPECT_EQ(s.ok_count(), 1);
  EXPECT_EQ(s.watchdog_count(), 0);
  EXPECT_EQ(s.error_count(), 0);
  EXPECT_EQ(s.retry_attempts(), 1);  // what BENCH json reports
  ASSERT_EQ(s.times().size(), 1u);
  EXPECT_EQ(s.times()[0], t2);
}

TEST(Harness, ErrorRunsAreRetriedThenQuarantinedInPlace) {
  setenv("ILAN_BENCH_JSON", "0", 1);
  setenv("ILAN_BENCH_RETRIES", "2", 1);
  const auto s =
      bench::run_many("no-such-kernel", "ilan", 2, 7, small_opts());
  unsetenv("ILAN_BENCH_RETRIES");
  ASSERT_EQ(s.runs.size(), 2u);
  for (const auto& r : s.runs) {
    EXPECT_EQ(r.status, bench::RunStatus::kError);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.attempts, 3);  // 1 try + ILAN_BENCH_RETRIES retries
  }
  EXPECT_EQ(s.failed_count(), 2);
}

}  // namespace
