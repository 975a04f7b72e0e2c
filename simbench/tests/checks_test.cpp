// Test of the benchmark's own correctness checks: each check accepts a
// correct input and rejects a deliberately broken one. The tiling and
// task-graph checks are also fed data recorded from real simulations, then
// the same data with one task dropped, doubled or moved.
//
// Build the `checks_test` target of simbench/CMakeLists.txt and run it, or
// `python3 simbench/run.py --self-test`. Exits non-zero on any failure.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "probes.hpp"
#include "rt/runtime.hpp"
#include "rt/team.hpp"
#include "sched/registry.hpp"
#include "topo/registry.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool passes(const std::string& r) { return r.empty(); }
bool rejects(const std::string& r) { return !r.empty(); }

using simbench::checks::Range;

void pure_checks() {
  namespace c = simbench::checks;
  const std::vector<Range> tiles = {{0, 4}, {4, 9}, {9, 10}};
  expect(passes(c::tiling(10, tiles)), "tiling accepts an exact tiling");
  expect(rejects(c::tiling(10, {{0, 4}, {9, 10}})), "tiling rejects a dropped range");
  expect(rejects(c::tiling(10, {{0, 4}, {4, 9}, {4, 9}, {9, 10}})),
         "tiling rejects a doubled range");
  expect(rejects(c::tiling(10, {{0, 5}, {4, 10}})), "tiling rejects overlapping ranges");
  expect(rejects(c::tiling(10, {{0, 4}, {4, 11}})), "tiling rejects a range past the end");

  // Diamond 0 -> {1, 2} -> 3.
  const std::vector<std::vector<std::int32_t>> preds = {{}, {0}, {0}, {1, 2}};
  const std::vector<std::int32_t> once = {1, 1, 1, 1};
  const std::vector<std::int64_t> start = {0, 10, 10, 25};
  const std::vector<std::int64_t> finish = {10, 20, 25, 30};
  expect(passes(c::dag_order(preds, once, start, finish)), "dag_order accepts a valid run");
  const std::vector<std::int64_t> early = {0, 10, 10, 22};
  expect(rejects(c::dag_order(preds, once, early, finish)),
         "dag_order rejects a node started before a predecessor finished");
  expect(rejects(c::dag_order(preds, std::vector<std::int32_t>{1, 2, 1, 1}, start, finish)),
         "dag_order rejects a node run twice");
  expect(rejects(c::dag_order(preds, std::vector<std::int32_t>{1, 1, 0, 1}, start, finish)),
         "dag_order rejects a node never run");

  expect(passes(c::makespan_bound(1.0, 64 * 3e9, 64, 3e9)), "makespan_bound accepts the floor");
  expect(rejects(c::makespan_bound(0.5, 64 * 3e9, 64, 3e9)),
         "makespan_bound rejects a makespan below the CPU floor");

  expect(passes(c::whole_nodes(16, 2, 8)), "whole_nodes accepts 2 full nodes");
  expect(rejects(c::whole_nodes(12, 2, 8)), "whole_nodes rejects a partial node");

  const std::vector<std::int64_t> generated = {500, 520};
  expect(passes(c::arrivals(generated, std::vector<std::int64_t>{500, 520})),
         "arrivals accepts matching counts");
  expect(rejects(c::arrivals(generated, std::vector<std::int64_t>{500, 519})),
         "arrivals rejects a request count that differs from the generated arrivals");
  expect(rejects(c::arrivals(generated, std::vector<std::int64_t>{1020})),
         "arrivals rejects a different tenant count");

  expect(passes(c::conservation(10, 7, 1, 1, 1)), "conservation accepts a full account");
  expect(rejects(c::conservation(10, 7, 1, 1, 0)), "conservation rejects a lost request");

  const std::vector<double> deadlines = {0.03, 0.03, 0.05};
  expect(passes(c::latencies({0.01, 0.02, 0.04}, 3, deadlines)),
         "latencies accepts in-deadline latencies");
  expect(rejects(c::latencies({0.01, 0.04, 0.045}, 3, deadlines)),
         "latencies rejects more late latencies than long-deadline requests");
  expect(rejects(c::latencies({0.01, 0.02, 0.06}, 3, deadlines)),
         "latencies rejects a latency beyond every deadline");
  expect(rejects(c::latencies({0.0, 0.02}, 2, deadlines)),
         "latencies rejects a zero latency");
  expect(rejects(c::latencies({0.01, 0.02}, 3, deadlines)),
         "latencies rejects a missing latency");

  expect(passes(c::same_digest(0x1234, 0x1234)), "same_digest accepts equal digests");
  expect(rejects(c::same_digest(0x1234, 0x1235)),
         "same_digest rejects a traced digest that differs from the untraced one");
}

std::vector<Range> ranges_of(const simbench::ExecRecord& ex) {
  std::vector<Range> r;
  for (const auto& t : ex.tasks) r.emplace_back(t.begin, t.end);
  return r;
}

void recorded_checks() {
  namespace il = ilan;
  namespace c = simbench::checks;
  il::rt::MachineParams params;
  params.spec = il::topo::make_machine_spec("tiny");
  params.seed = 7;
  il::rt::Machine machine(params);
  auto sched = il::sched::make_scheduler("baseline");
  il::rt::Team team(machine, *sched);
  simbench::Recorder rec;
  team.set_observer(&rec);

  il::rt::TaskloopSpec loop;
  loop.loop_id = 1;
  loop.name = "loop";
  loop.iterations = 1000;
  loop.demand = [](std::int64_t b, std::int64_t e) {
    return il::rt::TaskDemand{1e4 * static_cast<double>(e - b), {}};
  };
  team.run_taskloop(loop);

  il::rt::TaskGraphSpec g;
  g.graph_id = 2;
  g.name = "chain-fan";
  const auto root = g.add_node();
  const auto mid = g.add_node({root});
  for (int i = 0; i < 6; ++i) g.add_node({mid});
  g.demand = loop.demand;
  team.run_taskgraph(g);

  const auto& execs = rec.execs();
  expect(execs.size() == 2 && execs[0].graph == nullptr && execs[1].graph == &g,
         "recorder sees one taskloop and one graph");
  if (execs.size() != 2) return;

  const auto& ex = execs[0];
  expect(ex.tasks.size() > 1, "the taskloop ran as several chunks");
  expect(passes(c::tiling(ex.iterations, ranges_of(ex))), "recorded taskloop tiles its range");
  auto dropped = ranges_of(ex);
  dropped.erase(dropped.begin() + 1);
  expect(rejects(c::tiling(ex.iterations, dropped)), "recorded taskloop minus one chunk fails");
  auto doubled = ranges_of(ex);
  doubled.push_back(doubled.back());
  expect(rejects(c::tiling(ex.iterations, doubled)), "recorded taskloop plus a doubled chunk fails");

  const auto& gx = execs[1];
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::int32_t> runs(n, 0);
  std::vector<std::int64_t> start(n, 0), finish(n, 0);
  for (const auto& t : gx.tasks) {
    const auto i = static_cast<std::size_t>(t.begin);
    ++runs[i];
    start[i] = t.start_ps;
    finish[i] = t.finish_ps;
  }
  expect(passes(c::dag_order(g.preds, runs, start, finish)), "recorded graph respects its edges");
  auto moved = start;
  moved[static_cast<std::size_t>(mid)] = finish[static_cast<std::size_t>(root)] - 1;
  expect(rejects(c::dag_order(g.preds, runs, moved, finish)),
         "recorded graph with a node moved before its predecessor's finish fails");
}

}  // namespace

int main() {
  pure_checks();
  recorded_checks();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
