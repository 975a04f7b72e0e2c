// google-benchmark microbenchmarks of the runtime primitives: deque ops,
// max-min solver, PTT bookkeeping, topology queries, cache probes, event
// engine throughput, and chunking. These measure the *host* cost of the
// simulator/scheduler machinery, not simulated time.
#include <benchmark/benchmark.h>

#include "core/ptt.hpp"
#include "mem/cache_model.hpp"
#include "mem/flow_network.hpp"
#include "paper_scale.hpp"
#include "rt/task.hpp"
#include "rt/ws_deque.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "topo/registry.hpp"

using namespace ilan;

namespace {

const rt::TaskloopSpec& dummy_spec() {
  static rt::TaskloopSpec spec = [] {
    rt::TaskloopSpec s;
    s.loop_id = 1;
    s.iterations = 1 << 20;
    s.demand = [](std::int64_t, std::int64_t) { return rt::TaskDemand{}; };
    return s;
  }();
  return spec;
}

void BM_DequePushPop(benchmark::State& state) {
  rt::WsDeque dq;
  rt::Task t;
  t.loop = &dummy_spec();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) dq.push_back(t);
    for (int i = 0; i < 32; ++i) benchmark::DoNotOptimize(dq.pop_front());
    for (int i = 0; i < 32; ++i) benchmark::DoNotOptimize(dq.steal_back(true));
  }
}
BENCHMARK(BM_DequePushPop);

void BM_FlowNetworkSolve(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  mem::FlowNetwork net;
  for (auto _ : state) {
    state.PauseTiming();
    net.clear();
    std::vector<mem::FlowNetwork::ConstraintIdx> ctrls;
    for (int c = 0; c < 8; ++c) ctrls.push_back(net.add_constraint(90e9));
    for (int f = 0; f < flows; ++f) {
      const mem::FlowNetwork::ConstraintIdx cs[1] = {ctrls[static_cast<std::size_t>(f % 8)]};
      net.add_flow(22e9, 1.0 + 0.4 * (f % 3), cs);
    }
    state.ResumeTiming();
    net.solve();
    benchmark::DoNotOptimize(net.rate(0));
  }
}
BENCHMARK(BM_FlowNetworkSolve)->Arg(64)->Arg(256)->Arg(576);

using bench::paper_scale::build;
namespace paper_scale = bench::paper_scale;

// Full rebuild + solve: the resolve() path when the active-flow set changed.
void BM_FlowNetworkRebuildSolve(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  mem::FlowNetwork net;
  std::int64_t flows = 0;
  for (auto _ : state) {
    flows += paper_scale::build(net, tasks);
    net.solve();
    benchmark::DoNotOptimize(net.rate(0));
  }
  state.SetItemsProcessed(flows);
}
BENCHMARK(BM_FlowNetworkRebuildSolve)->Arg(16)->Arg(64);

// Capacity refresh + solve on an unchanged structure: the resolve() path
// when only congestion derates moved (MemorySystem's incremental cache).
void BM_FlowNetworkCapUpdateSolve(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  mem::FlowNetwork net;
  std::int64_t flows = 0;
  paper_scale::build(net, tasks);
  double wobble = 0.0;
  for (auto _ : state) {
    wobble = wobble < 10e9 ? wobble + 1e9 : 0.0;
    for (int n = 0; n < paper_scale::kNodes; ++n) net.set_capacity(n, 80e9 + wobble);
    net.solve();
    benchmark::DoNotOptimize(net.rate(0));
    flows += net.num_flows();
  }
  state.SetItemsProcessed(flows);
}
BENCHMARK(BM_FlowNetworkCapUpdateSolve)->Arg(16)->Arg(64);

void BM_PttRecordAndQuery(benchmark::State& state) {
  core::PerfTraceTable ptt;
  rt::LoopExecStats stats;
  stats.loop_id = 7;
  stats.config.num_threads = 64;
  stats.wall = sim::from_ms(3.0);
  stats.node_busy.assign(8, sim::from_ms(1));
  stats.node_iters.assign(8, 256);
  int t = 8;
  for (auto _ : state) {
    stats.config.num_threads = t;
    t = t == 64 ? 8 : t + 8;
    ptt.record(7, stats);
    benchmark::DoNotOptimize(ptt.fastest(7));
    benchmark::DoNotOptimize(ptt.second_fastest(7));
    benchmark::DoNotOptimize(ptt.nodes_ranked(7, 8));
  }
}
BENCHMARK(BM_PttRecordAndQuery);

void BM_TopologyNodesByDistance(benchmark::State& state) {
  const auto topo = topo::build(topo::machine_spec_from_env());
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.nodes_by_distance(topo::NodeId{3}));
  }
}
BENCHMARK(BM_TopologyNodesByDistance);

void BM_CacheAccess(benchmark::State& state) {
  const auto topo = topo::build(topo::machine_spec_from_env());
  mem::CacheModel cache(topo, mem::CacheParams{});
  sim::Xoshiro256ss rng(9);
  for (auto _ : state) {
    const auto off = rng.below(1u << 28);
    benchmark::DoNotOptimize(cache.access(topo::CcdId{static_cast<std::int32_t>(rng.below(16))},
                                          0, off, 4 << 20));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_EngineThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(i * 100, [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineThroughput);

// Steady-state schedule/fire churn on a long-lived engine — the actual
// inner loop of a simulated run (one engine serves millions of events).
// 64 self-rescheduling events, items/sec == events/sec.
void BM_EngineSteadyState(benchmark::State& state) {
  sim::Engine engine;
  struct Resched {
    sim::Engine* e;
    void operator()() const { e->schedule_after(100, *this); }
  };
  for (int i = 0; i < 64; ++i) {
    engine.schedule_at(i, Resched{&engine});
  }
  std::int64_t fired = 0;
  std::int64_t limit = 0;
  for (auto _ : state) {
    limit += 100;
    fired += static_cast<std::int64_t>(engine.run_until(limit));
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_EngineSteadyState);

// Schedule+cancel throughput. Cancellation removes the pending entry from
// the indexed heap in place, so this prices the push and remove sifts —
// there is no deferred drain left to hide.
void BM_EngineScheduleCancel(benchmark::State& state) {
  sim::Engine engine;
  std::vector<sim::EventId> ids(1024);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      ids[static_cast<std::size_t>(i)] = engine.schedule_after(1000 + i, [] {});
    }
    for (const auto id : ids) benchmark::DoNotOptimize(engine.cancel(id));
    benchmark::DoNotOptimize(engine.run_until(engine.now()));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineScheduleCancel);

// Reschedule throughput on a populated heap — the resolver's dominant
// engine operation (every in-flight completion moves on every resolve).
// With the indexed heap this is one in-place sift; with lazy deletion it
// was a push plus a deferred stale pop.
void BM_EngineReschedule(benchmark::State& state) {
  sim::Engine engine;
  std::vector<sim::EventId> ids(64);
  for (int i = 0; i < 64; ++i) {
    ids[static_cast<std::size_t>(i)] = engine.schedule_at(1000 + i, [] {});
  }
  std::int64_t n = 0;
  sim::SimTime at = 1000;
  for (auto _ : state) {
    for (auto& id : ids) {
      id = engine.reschedule(id, at + 64);
      benchmark::DoNotOptimize(id);
    }
    ++at;
    n += 64;
  }
  state.SetItemsProcessed(n);
}
BENCHMARK(BM_EngineReschedule);

void BM_MakeChunks(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::make_chunks(2048, 0, 64, 2));
  }
}
BENCHMARK(BM_MakeChunks);

}  // namespace

BENCHMARK_MAIN();
