// Host-side probes the benchmark places around calls into the simulator's
// public API: a span log, a forwarding scheduler that counts and times each
// scheduler call, and a task observer that records what ran where and when
// so the correctness checks can be computed apart from the runtime.
//
// Nothing here feeds the simulation: probes read the host clock and
// simulated time only, so a probed run fires the same event stream as a
// bare one (the benchmark checks this by digest).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "rt/observer.hpp"
#include "rt/scheduler.hpp"
#include "rt/task_graph.hpp"

namespace simbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// In-memory span log: name, start, end and the span that caused it. Spans
// are written as one Chrome-trace JSON document when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  // Opens a span under the innermost open span; returns its id.
  int open(std::string name);
  // Closes span `id` (the innermost open span) and returns its duration.
  double close(int id);

  void write_chrome(std::ostream& out) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Count and summed host seconds of one kind of call.
struct CallStat {
  std::int64_t calls = 0;
  double seconds = 0.0;
};

// Calls the forwarding scheduler saw. High-rate calls (acquire) are kept as
// counts and summed time instead of spans.
struct SchedStats {
  CallStat select_config, distribute, acquire, place_ready, loop_finished;
  std::int64_t acquire_hits = 0;  // acquire calls that returned a task

  void add(const SchedStats& o);
};

// Forwards every rt::Scheduler call to `inner`, counting and timing it.
class TimedScheduler final : public ilan::rt::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<ilan::rt::Scheduler> inner, SchedStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  ilan::rt::LoopConfig select_config(const ilan::rt::TaskloopSpec& spec,
                                     ilan::rt::Team& team) override;
  std::size_t distribute(const ilan::rt::TaskloopSpec& spec,
                         const ilan::rt::LoopConfig& cfg, ilan::rt::Team& team,
                         ilan::sim::SimTime& serial_cost) override;
  ilan::rt::AcquireResult acquire(ilan::rt::Team& team, ilan::rt::Worker& w) override;
  void place_ready(const ilan::rt::TaskGraphSpec& graph, ilan::rt::Task& task,
                   const ilan::rt::LoopConfig& cfg, ilan::rt::Team& team,
                   std::span<const ilan::topo::NodeId> pred_nodes,
                   ilan::sim::SimTime& cost) override;
  void loop_finished(const ilan::rt::TaskloopSpec& spec,
                     const ilan::rt::LoopExecStats& stats, ilan::rt::Team& team) override;
  [[nodiscard]] ilan::rt::SchedulerInfo introspect() const override {
    return inner_->introspect();
  }

 private:
  std::unique_ptr<ilan::rt::Scheduler> inner_;
  SchedStats& stats_;
};

// One recorded task: the iteration range (node id i is [i, i+1) on the
// graph path) and its simulated start and finish.
struct TaskRecord {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t start_ps = 0;
  std::int64_t finish_ps = -1;
};

// One recorded parallel execution (a taskloop or a task graph).
struct ExecRecord {
  const ilan::rt::TaskloopSpec* spec = nullptr;   // the loop (synthetic for graphs)
  const ilan::rt::TaskGraphSpec* graph = nullptr;  // null for taskloops
  std::int64_t iterations = 0;
  std::int64_t begin_ps = 0;  // simulated start of the execution
  std::vector<TaskRecord> tasks;
};

// Records every execution's tasks. Cheap enough to ride every timed
// repetition, so all repetitions run with the same instrumentation.
class Recorder final : public ilan::rt::TaskObserver {
 public:
  void on_loop_begin(const ilan::rt::TaskloopSpec& spec, const ilan::rt::LoopConfig& cfg,
                     const ilan::rt::Team& team, ilan::sim::SimTime now) override;
  void on_graph_begin(const ilan::rt::TaskGraphSpec& graph, const ilan::rt::Team& team,
                      ilan::sim::SimTime now) override;
  void on_task_start(const ilan::rt::Task& task, const ilan::rt::Worker& w,
                     std::span<const ilan::mem::AccessDescriptor> accesses,
                     ilan::sim::SimTime now) override;
  void on_task_finish(const ilan::rt::Task& task, const ilan::rt::Worker& w,
                      ilan::sim::SimTime now) override;

  [[nodiscard]] const std::vector<ExecRecord>& execs() const { return execs_; }

 private:
  std::vector<ExecRecord> execs_;
  std::vector<std::size_t> running_;  // per worker: index of its current task
};

}  // namespace simbench
