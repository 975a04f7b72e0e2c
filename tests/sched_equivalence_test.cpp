// The digest-equivalence gate for the composable-scheduler refactor: every
// registry-built scheduler must reproduce the pre-refactor monolithic
// classes bit-for-bit. The golden table below was captured on the last
// commit before the refactor (run_once, paper machine, seed 42, 3
// timesteps, ILAN_METRICS=1) — both the event digest (every committed
// simulation event, including the overhead cost-model charges) and the
// metrics digest (the full observability registry). Equal digests <=>
// bit-identical simulations, so a pass here proves the policy decomposition
// changed nothing observable.
//
// If a deliberate behaviour change ever invalidates this table, recapture
// it with the snippet in the comment at the bottom and say so loudly in the
// commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "kernels/kernels.hpp"
#include "obs/env.hpp"
#include "rt/team.hpp"
#include "sched/registry.hpp"
#include "sched/schedulers.hpp"

namespace {

using namespace ilan;

struct Golden {
  const char* kernel;
  const char* spec;
  std::uint64_t event_digest;
  std::uint64_t metrics_digest;
};

// Event-digest column: captured pre-refactor and NEVER recaptured since —
// every change so far (policy decomposition, observability, fault layer,
// incremental resolves) has kept the committed event stream bit-identical.
// Metrics-digest column: recaptured when the incremental-resolve work
// extended SolverStats (coalesced/compactions/flows_reclaimed now feed
// mem.solver.* counters, and the counter VALUES are the quantity that
// optimization changes — full_builds collapse into cap_updates/skipped),
// and again when the journal-replay solver and its three
// mem.solver.delta_* counters were deleted (the previous build with only
// those three counters left out of the registry reproduces this column
// exactly). Recapture tool: bench/dump_digests (see the recipe at the
// bottom).
constexpr Golden kGolden[] = {
    {"ft", "baseline", 0x352f2e1598c4d673ull, 0xf653daa9f2a6daa2ull},
    {"ft", "work-sharing", 0x57dfe0b38edc8da2ull, 0x58a3eb4b5139a6baull},
    {"ft", "ilan", 0x77267bca4f464839ull, 0xbcf7a23f9b080523ull},
    {"ft", "ilan-nomold", 0xac926d34b9cdaf29ull, 0xe78c97a95993cdf6ull},
    {"bt", "baseline", 0x8623cc7d3cf0a422ull, 0x2cf4cf02d0a87c43ull},
    {"bt", "work-sharing", 0x8f75f76abf1be48dull, 0x5cd450340efa7a0full},
    {"bt", "ilan", 0x0a61d49051a204deull, 0xf52318e825c16a01ull},
    {"bt", "ilan-nomold", 0xeca86cda89c9123dull, 0xf00eb40eabb7f732ull},
    {"cg", "baseline", 0xb5269114d03643c8ull, 0x806d6fe27bafbd21ull},
    {"cg", "work-sharing", 0x019073fde28ab125ull, 0xa4db49f8c8d1e419ull},
    {"cg", "ilan", 0xf59a52a6ed87614eull, 0x477d2a2adc8cd4bdull},
    {"cg", "ilan-nomold", 0x27ea69d1e4a8ee8eull, 0x4f674ef2806c78a5ull},
    {"lu", "baseline", 0x78bf556442e9636full, 0x1b16b1023d97a6cdull},
    {"lu", "work-sharing", 0x971bd480789c0e02ull, 0x9acc604ac93dbe81ull},
    {"lu", "ilan", 0x2e5e7338383939f4ull, 0x539355b208129c7dull},
    {"lu", "ilan-nomold", 0x60fd46aa7f068719ull, 0xb910e585ddf342c3ull},
    {"sp", "baseline", 0x02f5f0b5c81def7bull, 0x4d8af5af33603652ull},
    {"sp", "work-sharing", 0x01f467aeeca95dafull, 0x20c50cc6f08dca18ull},
    {"sp", "ilan", 0xb7efc125ce352ce8ull, 0x599d8c36850ad7a9ull},
    {"sp", "ilan-nomold", 0x5674fed27a691c96ull, 0x81d24f6c817bc51bull},
    {"matmul", "baseline", 0xf612162ea65c9a5full, 0xa692fb3b6f1e5d8aull},
    {"matmul", "work-sharing", 0x1621402ca73cfd2dull, 0xbfc45867ed8f9da7ull},
    {"matmul", "ilan", 0x878bc2a68e9e3657ull, 0x111e0989adec0e28ull},
    {"matmul", "ilan-nomold", 0x6c965d60f7cbf4f2ull, 0x2abb6e685a9ced22ull},
    {"lulesh", "baseline", 0x4149864b36fe00d1ull, 0xbbe2c46dd7321fe3ull},
    {"lulesh", "work-sharing", 0x362d5f59d2decfd5ull, 0x6a9ac85739e0d33dull},
    {"lulesh", "ilan", 0x141d2132e152c13eull, 0xe93f827168f40d4eull},
    {"lulesh", "ilan-nomold", 0x2ad2b7473eb6f2efull, 0x433810e752c4a841ull},
};

// Task-graph rows: the DAG runtime path (dependency release, dep-aware
// distribution) under the standard schedulers. Captured through the same
// run_once configuration as kGolden; the taskloop rows above never reach
// the task-graph release path, so without these rows nothing pins it.
constexpr Golden kDagGolden[] = {
    {"lu-dag", "baseline", 0xb00e45d0f8a59eebull, 0xc524dace5e76eda8ull},
    {"lu-dag", "ilan", 0xed0f70ee09835d0full, 0x5c7a736bb9bc539cull},
    {"lu-dag", "composed:dist=dep-aware", 0xfbd89325fbf47600ull, 0x97c7cfe55e1f3a1cull},
    {"treered", "baseline", 0x17a08083907f5ca3ull, 0x6752531f04cee52dull},
    {"treered", "ilan", 0x641131317f402fe3ull, 0x14a920db74a1c4a4ull},
    {"treered", "composed:dist=dep-aware", 0x7ab703b510442852ull, 0xdcdb88f13e16339eull},
    {"dphim", "baseline", 0x1bfdc97d54ced1b1ull, 0xb1fc67b8508f42c1ull},
    {"dphim", "ilan", 0x6cda5610f3ffc55full, 0x5e7e83f9d356d877ull},
    {"dphim", "composed:dist=dep-aware", 0xbda8c089bd57ec00ull, 0xbd1cb2416327327cull},
};

// Fault rows: cg under ilan with an ILAN_FAULTS scenario armed. Fault
// transitions re-solve bandwidth through MemorySystem::request_resolve and
// change core frequencies mid-execution, which no fault-free row exercises.
struct FaultGolden {
  const char* kernel;
  const char* spec;
  const char* faults;  // ILAN_FAULTS scenario
  std::uint64_t event_digest;
  std::uint64_t metrics_digest;
};
constexpr FaultGolden kFaultGolden[] = {
    {"cg", "ilan", "storm", 0xf13fe577d9fe1631ull, 0x244537b7308200aaull},
    {"cg", "ilan", "throttle", 0x4f3acf59eecdc512ull, 0xd77a2360f6b4a4cfull},
};

kernels::KernelOptions golden_opts() {
  kernels::KernelOptions opts;
  opts.timesteps = 3;
  return opts;
}

TEST(SchedEquivalence, RegistrySchedulersReproducePreRefactorDigests) {
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const obs::ScopedEnv json_env("ILAN_BENCH_JSON", "0");
  for (const Golden& g : kGolden) {
    const auto r = bench::run_once(g.kernel, g.spec, /*seed=*/42, golden_opts());
    ASSERT_TRUE(r.ok()) << g.kernel << " / " << g.spec << ": " << r.error;
    EXPECT_EQ(r.event_digest, g.event_digest) << g.kernel << " / " << g.spec;
    EXPECT_EQ(r.metrics_digest, g.metrics_digest) << g.kernel << " / " << g.spec;
  }
}

TEST(SchedEquivalence, TaskGraphDigestsArePinned) {
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const obs::ScopedEnv json_env("ILAN_BENCH_JSON", "0");
  const obs::ScopedEnv no_faults_env("ILAN_FAULTS");
  for (const Golden& g : kDagGolden) {
    const auto r = bench::run_once(g.kernel, g.spec, /*seed=*/42, golden_opts());
    ASSERT_TRUE(r.ok()) << g.kernel << " / " << g.spec << ": " << r.error;
    EXPECT_EQ(r.event_digest, g.event_digest) << g.kernel << " / " << g.spec;
    EXPECT_EQ(r.metrics_digest, g.metrics_digest) << g.kernel << " / " << g.spec;
  }
}

TEST(SchedEquivalence, FaultScenarioDigestsArePinned) {
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const obs::ScopedEnv json_env("ILAN_BENCH_JSON", "0");
  for (const FaultGolden& g : kFaultGolden) {
    const obs::ScopedEnv faults_env("ILAN_FAULTS", g.faults);
    const auto r = bench::run_once(g.kernel, g.spec, /*seed=*/42, golden_opts());
    ASSERT_TRUE(r.ok()) << g.kernel << " / " << g.spec << " / " << g.faults << ": "
                        << r.error;
    EXPECT_GT(r.faults_applied, 0) << g.faults;
    EXPECT_EQ(r.event_digest, g.event_digest) << g.kernel << " / " << g.faults;
    EXPECT_EQ(r.metrics_digest, g.metrics_digest) << g.kernel << " / " << g.faults;
  }
}

// The explicit registry spelling of the no-mold ablation must be the same
// scheduler as the "ilan-nomold" shorthand, digest for digest.
TEST(SchedEquivalence, MoldOffSpecMatchesNoMoldShorthand) {
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const obs::ScopedEnv json_env("ILAN_BENCH_JSON", "0");
  const auto a = bench::run_once("cg", "ilan-nomold", 42, golden_opts());
  const auto b = bench::run_once("cg", "ilan:mold=off", 42, golden_opts());
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.metrics_digest, b.metrics_digest);
}

// Direct ManualScheduler goldens (fixed configs are not part of run_once's
// scheduler table, so they get their own capture path).
std::uint64_t run_manual(const std::string& kernel, rt::LoopConfig cfg,
                         core::IlanParams p) {
  rt::Machine machine(bench::paper_machine(42));
  machine.engine().set_digest_enabled(true);
  sched::ManualScheduler scheduler(cfg, p);
  rt::Team team(machine, scheduler);
  const auto prog = kernels::make_kernel(kernel, machine, golden_opts());
  (void)prog.run(team);
  return machine.engine().event_digest();
}

TEST(SchedEquivalence, ManualSchedulerReproducesPreRefactorDigests) {
  {
    rt::LoopConfig cfg;  // all threads, default (full) policy
    EXPECT_EQ(run_manual("cg", cfg, {}), 0xd1a93a37a76a780aull);
  }
  {
    rt::LoopConfig cfg;
    cfg.num_threads = 16;
    cfg.steal_policy = rt::StealPolicy::kFull;
    core::IlanParams p;
    p.stealable_fraction = 0.25;
    EXPECT_EQ(run_manual("cg", cfg, p), 0xfb616336af65d336ull);
  }
}

// The registry's "manual" spec builds the same scheduler as the facade.
TEST(SchedEquivalence, ManualSpecMatchesManualFacade) {
  rt::LoopConfig cfg;
  cfg.num_threads = 16;
  cfg.steal_policy = rt::StealPolicy::kFull;
  core::IlanParams p;
  p.stealable_fraction = 0.25;
  const auto facade_spec = sched::ManualScheduler(cfg, p).introspect().spec;
  EXPECT_EQ(sched::resolve_spec("manual:threads=16,policy=full,stealable=0.25"),
            facade_spec);

  rt::Machine machine(bench::paper_machine(42));
  machine.engine().set_digest_enabled(true);
  const auto scheduler =
      sched::make_scheduler("manual:threads=16,policy=full,stealable=0.25");
  rt::Team team(machine, *scheduler);
  const auto prog = kernels::make_kernel("cg", machine, golden_opts());
  (void)prog.run(team);
  EXPECT_EQ(machine.engine().event_digest(), 0xfb616336af65d336ull);
}

}  // namespace

// Recapture recipe (only after a DELIBERATE behaviour change): build and
// run bench/dump_digests — it prints the kGolden, kDagGolden and
// kFaultGolden rows in source form for the exact capture configuration
// (paper machine, seed 42, 3 timesteps, ILAN_METRICS=1 ILAN_BENCH_JSON=0)
// plus the two manual-scheduler goldens. Paste over the tables and say so
// loudly in the commit message. An event-digest change means the
// SIMULATION changed — that column is the one this gate exists to defend;
// treat a recapture of it as a red flag.
