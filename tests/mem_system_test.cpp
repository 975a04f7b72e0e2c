// MemorySystem: task execution timing under the fluid model.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "kernels/kernels.hpp"
#include "mem/memory_system.hpp"
#include "obs/env.hpp"
#include "rt/runtime.hpp"
#include "rt/team.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/event_tags.hpp"
#include "topo/builder.hpp"
#include "topo/presets.hpp"

namespace {

using namespace ilan;
using mem::AccessDescriptor;
using mem::AccessKind;

struct Fixture {
  sim::Engine engine;
  topo::Topology topo;
  mem::RegionTable regions;
  mem::MemorySystem ms;

  explicit Fixture(mem::MemParams params = {}, topo::MachineSpec spec =
                                                   topo::presets::tiny_2n8c())
      : topo(topo::build(spec)),
        regions(topo.num_nodes()),
        ms(engine, topo, params, regions, nullptr) {}
};

// tiny_2n8c: 2 nodes x 4 cores, 3 GHz, core 20 GB/s, node 60 GB/s,
// same-socket distance 12.

TEST(MemorySystem, PureComputeDuration) {
  Fixture f;
  sim::SimTime done = -1;
  f.ms.begin(topo::CoreId{0}, 3e9, {}, [&] { done = f.engine.now(); });
  f.engine.run();
  // 3e9 cycles at 3 GHz = 1 second.
  EXPECT_NEAR(sim::to_seconds(done), 1.0, 1e-6);
}

TEST(MemorySystem, PureLocalStreamDuration) {
  Fixture f;
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  sim::SimTime done = -1;
  const AccessDescriptor acc[] = {{r, 0, 200'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{0}, 0.0, acc, [&] { done = f.engine.now(); });
  f.engine.run();
  // 200 MB at the 20 GB/s core cap = 10 ms.
  EXPECT_NEAR(sim::to_seconds(done), 0.010, 0.0005);
}

TEST(MemorySystem, RooflineTakesTheMax) {
  Fixture f;
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  // cpu: 60 ms; mem: 10 ms -> 60 ms total (overlapped).
  sim::SimTime done = -1;
  const AccessDescriptor acc[] = {{r, 0, 200'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{0}, 0.18e9, acc, [&] { done = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(sim::to_seconds(done), 0.060, 0.001);
}

TEST(MemorySystem, RemoteStreamIsSlowerThanLocal) {
  mem::MemParams p;
  Fixture f(p);
  const auto local = f.regions.create("l", 1u << 30, mem::Placement::kNodeBound,
                                      2ull << 20, topo::NodeId{0});
  const auto remote = f.regions.create("r", 1u << 30, mem::Placement::kNodeBound,
                                       2ull << 20, topo::NodeId{1});
  sim::SimTime t_local = 0;
  sim::SimTime t_remote = 0;
  {
    const AccessDescriptor acc[] = {{local, 0, 100'000'000, AccessKind::kRead}};
    sim::SimTime start = f.engine.now();
    f.ms.begin(topo::CoreId{0}, 0.0, acc, [&] { t_local = f.engine.now() - start; });
    f.engine.run();
  }
  {
    const AccessDescriptor acc[] = {{remote, 0, 100'000'000, AccessKind::kRead}};
    sim::SimTime start = f.engine.now();
    f.ms.begin(topo::CoreId{0}, 0.0, acc, [&] { t_remote = f.engine.now() - start; });
    f.engine.run();
  }
  EXPECT_GT(t_remote, t_local);
  // (10/12)^0.22 efficiency: a few percent, not catastrophic.
  EXPECT_LT(sim::to_seconds(t_remote), sim::to_seconds(t_local) * 1.2);
}

TEST(MemorySystem, ContentionSlowsConcurrentStreams) {
  Fixture f;
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  // One stream alone: 100 MB at 20 GB/s = 5 ms. Four streams on one 60 GB/s
  // controller: 15 GB/s each minimum, plus congestion derating.
  std::vector<sim::SimTime> done(4, 0);
  for (int c = 0; c < 4; ++c) {
    const AccessDescriptor acc[] = {{r, 0, 100'000'000, AccessKind::kRead}};
    f.ms.begin(topo::CoreId{c}, 0.0, acc,
               [&done, c, &f] { done[static_cast<std::size_t>(c)] = f.engine.now(); });
  }
  f.engine.run();
  for (const auto t : done) {
    EXPECT_GT(sim::to_seconds(t), 0.0063);  // clearly slower than solo 5 ms
    EXPECT_LT(sim::to_seconds(t), 0.02);
  }
}

TEST(MemorySystem, GatherSlowsWithStreamPressure) {
  // A gather alone vs a gather while 4 streams queue at the controllers.
  const auto run_gather = [](bool with_streams) {
    Fixture f;
    const auto g = f.regions.create("g", 64u << 20, mem::Placement::kInterleave);
    const auto s = f.regions.create("s", 1u << 30, mem::Placement::kInterleave);
    if (with_streams) {
      for (int c = 1; c < 4; ++c) {
        const AccessDescriptor acc[] = {{s, 0, 500'000'000, AccessKind::kRead}};
        f.ms.begin(topo::CoreId{c}, 0.0, acc, [] {});
      }
      for (int c = 4; c < 8; ++c) {
        const AccessDescriptor acc[] = {{s, 0, 500'000'000, AccessKind::kRead}};
        f.ms.begin(topo::CoreId{c}, 0.0, acc, [] {});
      }
    }
    sim::SimTime done = -1;
    const AccessDescriptor acc[] = {{g, 0, 10'000'000, AccessKind::kGather}};
    f.ms.begin(topo::CoreId{0}, 0.0, acc, [&] { done = f.engine.now(); });
    f.engine.run_until(sim::from_seconds(10));
    return sim::to_seconds(done);
  };
  const double alone = run_gather(false);
  const double contended = run_gather(true);
  EXPECT_GT(alone, 0.0);
  EXPECT_GT(contended, alone * 1.3) << "loaded latency must slow gathers";
}

TEST(MemorySystem, FirstTouchHappensOnAccess) {
  Fixture f;
  const auto r = f.regions.create("u", 64u << 20, mem::Placement::kFirstTouch);
  EXPECT_EQ(f.regions.get(r).placed_pages(), 0u);
  const AccessDescriptor acc[] = {{r, 0, 8u << 20, AccessKind::kWrite}};
  f.ms.begin(topo::CoreId{5}, 0.0, acc, [] {});  // core 5 is on node 1
  f.engine.run();
  EXPECT_GT(f.regions.get(r).placed_pages(), 0u);
  EXPECT_EQ(f.regions.get(r).node_of(0), topo::NodeId{1});
}

TEST(MemorySystem, CallbackFiresExactlyOnce) {
  Fixture f;
  int count = 0;
  f.ms.begin(topo::CoreId{0}, 1e6, {}, [&] { ++count; });
  f.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(f.ms.active_executions(), 0u);
}

TEST(MemorySystem, TrafficStatsClassifyLocality) {
  Fixture f;
  const auto local = f.regions.create("l", 1u << 30, mem::Placement::kNodeBound,
                                      2ull << 20, topo::NodeId{0});
  const auto remote = f.regions.create("r", 1u << 30, mem::Placement::kNodeBound,
                                       2ull << 20, topo::NodeId{1});
  const AccessDescriptor acc[] = {{local, 0, 1'000'000, AccessKind::kRead},
                                  {remote, 0, 2'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{0}, 0.0, acc, [] {});
  f.engine.run();
  EXPECT_NEAR(f.ms.traffic().local_bytes, 1e6, 1e4);
  EXPECT_NEAR(f.ms.traffic().remote_bytes, 2e6, 1e4);
  // tiny preset is single socket: no cross-socket traffic.
  EXPECT_DOUBLE_EQ(f.ms.traffic().cross_socket_bytes, 0.0);
}

TEST(MemorySystem, ResetRunRequiresIdle) {
  Fixture f;
  f.ms.begin(topo::CoreId{0}, 1e9, {}, [] {});
  EXPECT_THROW(f.ms.reset_run(), std::logic_error);
  f.engine.run();
  f.ms.reset_run();
  EXPECT_DOUBLE_EQ(f.ms.traffic().total(), 0.0);
}

TEST(MemorySystem, SnapshotExposesActiveExecutions) {
  Fixture f;
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  const AccessDescriptor acc[] = {{r, 0, 100'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{2}, 1e9, acc, [] {});
  f.engine.run_until(sim::from_ms(1));
  const auto snap = f.ms.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].core, topo::CoreId{2});
  EXPECT_GT(snap[0].cpu_remaining, 0.0);
  ASSERT_EQ(snap[0].flows.size(), 1u);
  EXPECT_GT(snap[0].flows[0].rate_bytes_per_s, 0.0);
  f.engine.run();
}

TEST(MemorySystem, EmptyTaskCompletesImmediately) {
  Fixture f;
  sim::SimTime done = -1;
  f.ms.begin(topo::CoreId{0}, 0.0, {}, [&] { done = f.engine.now(); });
  f.engine.run();
  EXPECT_EQ(done, 0);
}

TEST(MemorySystem, RejectsBadArguments) {
  Fixture f;
  EXPECT_THROW(f.ms.begin(topo::CoreId{0}, -1.0, {}, [] {}), std::invalid_argument);
  EXPECT_THROW(f.ms.begin(topo::CoreId{0}, 1.0, {}, nullptr), std::invalid_argument);
}

// --- completion event ------------------------------------------------------
//
// One mem-complete event per MemorySystem, armed at the earliest (eta,
// ExecId); executions finishing at one instant still commit one event each.

// Pure-compute executions on tiny_2n8c's 3 GHz cores: 3e9 cycles finish at
// exactly 1 s, and dyadic checkpoints keep the re-solved etas exact. Cores
// go deliberately out of order, so ExecId (begin) order is not core order.
void begin_identical_computes(Fixture& f, std::vector<sim::SimTime>& done,
                              std::vector<int>& order) {
  static constexpr int kCores[] = {3, 1, 0, 2, 6, 5, 4, 7};
  for (std::size_t i = 0; i < done.size(); ++i) {
    f.ms.begin(topo::CoreId{kCores[i]}, 3e9, {}, [&f, &done, &order, i] {
      done[i] = f.engine.now();
      order.push_back(static_cast<int>(i));
    });
  }
}

TEST(MemorySystemCompletion, SimultaneousFinishesFireSeparatelyInExecIdOrder) {
  Fixture f;
  f.engine.enable_trace(1024);
  std::vector<sim::SimTime> done(6, -1);
  std::vector<int> order;
  begin_identical_computes(f, done, order);
  f.engine.run_until(sim::from_seconds(0.5));
  // Six executions run and one completion event is pending — nothing else.
  EXPECT_EQ(f.ms.active_executions(), 6u);
  EXPECT_EQ(f.engine.pending(), 1u);
  f.engine.run();
  EXPECT_EQ(f.engine.pending_regular(), 0u);
  EXPECT_EQ(f.ms.active_executions(), 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  for (const auto t : done) EXPECT_EQ(t, sim::from_seconds(1.0));
  // Six separate mem-complete events at one time, back to back in fire
  // order (no resolve slips in between).
  std::vector<sim::FiredEvent> completes;
  for (const auto& ev : f.engine.trace()) {
    if (ev.tag == sim::kTagMemComplete) completes.push_back(ev);
  }
  ASSERT_EQ(completes.size(), 6u);
  for (std::size_t i = 0; i < completes.size(); ++i) {
    EXPECT_EQ(completes[i].at, sim::from_seconds(1.0));
    EXPECT_EQ(completes[i].seq, completes[0].seq + i);
  }
}

TEST(MemorySystemCompletion, AtMostOneCompletionEventIsPendingThroughAMixedRun) {
  Fixture f;
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kInterleave);
  int finished = 0;
  for (int c = 0; c < 8; ++c) {
    const auto uc = static_cast<std::uint64_t>(c);
    const AccessDescriptor acc[] = {{r, uc << 24, (10 + 7 * uc) << 20, AccessKind::kRead}};
    f.ms.begin(topo::CoreId{c}, 1e6 * static_cast<double>(c % 3), acc,
               [&finished] { ++finished; });
  }
  // A probe every 50 us: with the probe itself popped, the queue holds the
  // completion event plus at most one pending resolve, and never nothing
  // while executions run.
  int probes = 0;
  std::function<void()> probe = [&] {
    ++probes;
    EXPECT_LE(f.engine.pending(), 2u);
    if (f.ms.active_executions() > 0) {
      EXPECT_GE(f.engine.pending(), 1u);
    }
    if (finished < 8) f.engine.schedule_after(sim::from_us(50), [&] { probe(); });
  };
  f.engine.schedule_at(0, [&] { probe(); });
  f.engine.run();
  EXPECT_EQ(finished, 8);
  EXPECT_GT(probes, 8);
  EXPECT_EQ(f.engine.pending_regular(), 0u);
}

TEST(MemorySystemCompletion, MidRunRequestResolveLeavesCompletionTimesUnchanged) {
  Fixture plain;
  std::vector<sim::SimTime> plain_done(4, -1);
  std::vector<int> plain_order;
  begin_identical_computes(plain, plain_done, plain_order);
  plain.engine.run();

  Fixture f;
  std::vector<sim::SimTime> done(4, -1);
  std::vector<int> order;
  begin_identical_computes(f, done, order);
  f.engine.schedule_at(sim::from_seconds(0.25), [&f] { f.ms.request_resolve(); });
  f.engine.run_until(sim::from_seconds(0.5));
  EXPECT_EQ(f.engine.pending(), 1u);
  f.engine.run();
  EXPECT_EQ(f.ms.solver_stats().resolves, plain.ms.solver_stats().resolves + 1);
  EXPECT_EQ(done, plain_done);
  EXPECT_EQ(order, plain_order);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(f.engine.pending_regular(), 0u);
}

// --- CXL far-memory tier --------------------------------------------------
//
// tiny machine with near DRAM shrunk to 10 MB/node and a 6 GB/s far device:
// a 100 MB node-bound region spills ~90% of its pages past near capacity, so
// streams over it split into a near flow and a far flow behind the device
// constraint (run_tier1.sh topo runs this suite under every sanitizer).

topo::MachineSpec tiny_with_far() {
  auto spec = topo::presets::tiny_2n8c();
  spec.node_mem_gb = 0.01;  // 10 MB near DRAM per node
  spec.far_gb = 64.0;
  spec.far_bw_gbps = 6.0;
  spec.far_lat_ns = 350.0;
  return spec;
}

TEST(FarTier, SpillSplitsStreamIntoNearAndFarFlows) {
  Fixture f({}, tiny_with_far());
  EXPECT_TRUE(f.topo.has_far_tier());
  const auto r = f.regions.create("spill", 100u << 20, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  const AccessDescriptor acc[] = {{r, 0, 50'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{0}, 0.0, acc, [] {});
  f.engine.run_until(sim::from_us(1));
  const auto snap = f.ms.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].flows.size(), 2u);
  const auto& a = snap[0].flows[0];
  const auto& b = snap[0].flows[1];
  EXPECT_NE(a.far, b.far);
  const auto& far = a.far ? a : b;
  const auto& near = a.far ? b : a;
  // (placed - capacity) / placed of the 50 MB goes far: the clear majority.
  EXPECT_GT(far.remaining_bytes, near.remaining_bytes * 4);
  EXPECT_GT(far.rate_bytes_per_s, 0.0);
  EXPECT_GT(near.rate_bytes_per_s, 0.0);
  f.engine.run();
}

TEST(FarTier, FarStreamGetsLessBandwidthUnderContention) {
  // Four spilling streams on node 0 vs four near-only streams on node 1.
  // Max-min over the shared 6 GB/s far device must hand every far flow less
  // bandwidth than any purely-local flow gets from its controller.
  Fixture f({}, tiny_with_far());
  const auto spill = f.regions.create("spill", 100u << 20, mem::Placement::kNodeBound,
                                      2ull << 20, topo::NodeId{0});
  const auto near = f.regions.create("near", 8u << 20, mem::Placement::kNodeBound,
                                     2ull << 20, topo::NodeId{1});
  for (int c = 0; c < 4; ++c) {  // cores 0..3 live on node 0
    const AccessDescriptor acc[] = {{spill, 0, 50'000'000, AccessKind::kRead}};
    f.ms.begin(topo::CoreId{c}, 0.0, acc, [] {});
  }
  for (int c = 4; c < 8; ++c) {  // cores 4..7 live on node 1
    const AccessDescriptor acc[] = {{near, 0, 8'000'000, AccessKind::kRead}};
    f.ms.begin(topo::CoreId{c}, 0.0, acc, [] {});
  }
  f.engine.run_until(sim::from_us(1));
  double max_far_rate = 0.0;
  double min_local_rate = 1e30;
  int far_flows = 0;
  int local_flows = 0;
  for (const auto& exec : f.ms.snapshot()) {
    for (const auto& flow : exec.flows) {
      if (flow.far) {
        max_far_rate = std::max(max_far_rate, flow.rate_bytes_per_s);
        ++far_flows;
      } else if (flow.src_node == 1) {
        min_local_rate = std::min(min_local_rate, flow.rate_bytes_per_s);
        ++local_flows;
      }
    }
  }
  EXPECT_EQ(far_flows, 4);
  EXPECT_EQ(local_flows, 4);
  EXPECT_GT(max_far_rate, 0.0);
  EXPECT_LT(max_far_rate, min_local_rate)
      << "far-tier streams must see less bandwidth than local ones";
  f.engine.run();
}

TEST(FarTier, SpillSlowsTheStreamEndToEnd) {
  // The same 50 MB stream: all-near on the stock tiny machine vs ~90%
  // spilled behind the 6 GB/s device. The tier must cost wall-clock time.
  const auto run_stream = [](const topo::MachineSpec& spec) {
    Fixture f({}, spec);
    const auto r = f.regions.create("u", 100u << 20, mem::Placement::kNodeBound,
                                    2ull << 20, topo::NodeId{0});
    sim::SimTime done = -1;
    const AccessDescriptor acc[] = {{r, 0, 50'000'000, AccessKind::kRead}};
    f.ms.begin(topo::CoreId{0}, 0.0, acc, [&] { done = f.engine.now(); });
    f.engine.run();
    return sim::to_seconds(done);
  };
  const double t_near = run_stream(topo::presets::tiny_2n8c());
  const double t_far = run_stream(tiny_with_far());
  EXPECT_GT(t_far, t_near * 2.0);
}

TEST(FarTier, TierlessMachineHasNoFarFlows) {
  Fixture f;  // stock tiny: no far tier, snapshot far flags all false
  EXPECT_FALSE(f.topo.has_far_tier());
  const auto r = f.regions.create("u", 1u << 30, mem::Placement::kNodeBound,
                                  2ull << 20, topo::NodeId{0});
  const AccessDescriptor acc[] = {{r, 0, 100'000'000, AccessKind::kRead}};
  f.ms.begin(topo::CoreId{0}, 0.0, acc, [] {});
  f.engine.run_until(sim::from_us(1));
  for (const auto& exec : f.ms.snapshot()) {
    for (const auto& flow : exec.flows) EXPECT_FALSE(flow.far);
  }
  f.engine.run();
}

// ILAN_SOLVER_CHECK=1 rebuilds every resolve's network from scratch and
// throws on the first rate that differs bit-for-bit from the persistent
// network's. Whole kernels drive the persistent network through real
// churn (appends, drains, completions, compactions, gather-cap and
// controller-cap updates, far-tier flows); the check must never fire, and
// observing must not change what it observes.
TEST(MemorySystem, SolverCheckHoldsOverWholeKernels) {
  struct Run {
    double makespan_s;
    std::uint64_t events;
    std::uint64_t digest;
    mem::SolverStats solver;
  };
  const auto run = [](const char* kernel, const topo::MachineSpec& spec, bool check) {
    const obs::ScopedEnv env("ILAN_SOLVER_CHECK", check ? "1" : "0");
    rt::MachineParams p;
    p.spec = spec;
    p.noise.enabled = true;
    p.seed = 5;
    rt::Machine machine(p);
    machine.engine().set_digest_enabled(true);
    sched::IlanScheduler sched;
    rt::Team team(machine, sched);
    kernels::KernelOptions opts;
    opts.timesteps = 2;
    opts.size_factor = 0.5;
    const auto prog = kernels::make_kernel(kernel, machine, opts);
    const double t = sim::to_seconds(prog.run(team));
    return Run{t, machine.engine().events_fired(), machine.engine().event_digest(),
               machine.memory().solver_stats()};
  };
  for (const auto& [kernel, spec] :
       {std::pair{"cg", topo::presets::zen4_epyc9354_2s()},
        std::pair{"sp", topo::presets::zen4_epyc9354_2s()},
        std::pair{"cg", topo::presets::cxl_zen4_far()}}) {
    Run checked{};
    ASSERT_NO_THROW(checked = run(kernel, spec, true)) << kernel;
    const Run plain = run(kernel, spec, false);
    EXPECT_EQ(checked.makespan_s, plain.makespan_s) << kernel;
    EXPECT_EQ(checked.events, plain.events) << kernel;
    EXPECT_EQ(checked.digest, plain.digest) << kernel;
    EXPECT_GT(checked.solver.cap_updates, 0u) << kernel;
  }
}

}  // namespace
