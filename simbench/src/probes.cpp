#include "probes.hpp"

#include <cstdio>
#include <stdexcept>

#include "rt/team.hpp"

namespace simbench {

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), seconds_since(origin_), 0.0,
                        stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

double SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = seconds_since(origin_);
  return s.end_s - s.start_s;
}

void SpanLog::write_chrome(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent);
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << buf;
  }
  out << "\n]}\n";
}

void SchedStats::add(const SchedStats& o) {
  for (auto [a, b] : {std::pair{&select_config, &o.select_config},
                      std::pair{&distribute, &o.distribute},
                      std::pair{&acquire, &o.acquire},
                      std::pair{&place_ready, &o.place_ready},
                      std::pair{&loop_finished, &o.loop_finished}}) {
    a->calls += b->calls;
    a->seconds += b->seconds;
  }
  acquire_hits += o.acquire_hits;
}

namespace {

// Times one forwarded call into `stat`.
template <typename F>
decltype(auto) timed(CallStat& stat, F&& f) {
  struct Guard {
    CallStat& stat;
    Clock::time_point t0 = Clock::now();
    ~Guard() {
      stat.seconds += seconds_since(t0);
      ++stat.calls;
    }
  } guard{stat};
  return f();
}

}  // namespace

ilan::rt::LoopConfig TimedScheduler::select_config(const ilan::rt::TaskloopSpec& spec,
                                                   ilan::rt::Team& team) {
  return timed(stats_.select_config, [&] { return inner_->select_config(spec, team); });
}

std::size_t TimedScheduler::distribute(const ilan::rt::TaskloopSpec& spec,
                                       const ilan::rt::LoopConfig& cfg, ilan::rt::Team& team,
                                       ilan::sim::SimTime& serial_cost) {
  return timed(stats_.distribute,
               [&] { return inner_->distribute(spec, cfg, team, serial_cost); });
}

ilan::rt::AcquireResult TimedScheduler::acquire(ilan::rt::Team& team, ilan::rt::Worker& w) {
  ilan::rt::AcquireResult r = timed(stats_.acquire, [&] { return inner_->acquire(team, w); });
  if (r.task) ++stats_.acquire_hits;
  return r;
}

void TimedScheduler::place_ready(const ilan::rt::TaskGraphSpec& graph, ilan::rt::Task& task,
                                 const ilan::rt::LoopConfig& cfg, ilan::rt::Team& team,
                                 std::span<const ilan::topo::NodeId> pred_nodes,
                                 ilan::sim::SimTime& cost) {
  timed(stats_.place_ready,
        [&] { inner_->place_ready(graph, task, cfg, team, pred_nodes, cost); });
}

void TimedScheduler::loop_finished(const ilan::rt::TaskloopSpec& spec,
                                   const ilan::rt::LoopExecStats& stats, ilan::rt::Team& team) {
  timed(stats_.loop_finished, [&] { inner_->loop_finished(spec, stats, team); });
}

void Recorder::on_loop_begin(const ilan::rt::TaskloopSpec& spec,
                             const ilan::rt::LoopConfig& /*cfg*/,
                             const ilan::rt::Team& team, ilan::sim::SimTime now) {
  execs_.push_back(ExecRecord{&spec, nullptr, spec.iterations, now, {}});
  running_.assign(static_cast<std::size_t>(team.num_workers()), 0);
}

void Recorder::on_graph_begin(const ilan::rt::TaskGraphSpec& graph,
                              const ilan::rt::Team& /*team*/, ilan::sim::SimTime /*now*/) {
  execs_.back().graph = &graph;
  execs_.back().iterations = graph.num_nodes();
}

void Recorder::on_task_start(const ilan::rt::Task& task, const ilan::rt::Worker& w,
                             std::span<const ilan::mem::AccessDescriptor> /*accesses*/,
                             ilan::sim::SimTime now) {
  auto& tasks = execs_.back().tasks;
  running_[static_cast<std::size_t>(w.id)] = tasks.size();
  tasks.push_back(TaskRecord{task.begin, task.end, now, -1});
}

void Recorder::on_task_finish(const ilan::rt::Task& /*task*/, const ilan::rt::Worker& w,
                              ilan::sim::SimTime now) {
  execs_.back().tasks[running_[static_cast<std::size_t>(w.id)]].finish_ps = now;
}

}  // namespace simbench
