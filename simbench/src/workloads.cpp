#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "checks.hpp"
#include "kernels/kernels.hpp"
#include "mem/flow_network.hpp"
#include "obs/metrics.hpp"
#include "rt/runtime.hpp"
#include "rt/team.hpp"
#include "sched/registry.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "sim/event_tags.hpp"
#include "topo/registry.hpp"

extern char** environ;

namespace simbench {

namespace il = ilan;

namespace {

constexpr const char* kTopology = "zen4";

// Served traffic: kServeWindows independent windows (own machine seed and
// arrivals each) of kServeWindowS. 80 requests/s over 4 x 7 s offers ~2240
// requests, so the pooled p99 has ~22 samples beyond it. Over ten seeds the
// quartile distance of p99 was 11% of its median with 14 s of traffic,
// 5-14% with 28 s and 4.9% with 56 s; host cost grows with the traffic
// (~0.29 s per simulated second). Four short simulations instead of one
// long one give each its own fastest repetition: with one 28 s window the
// quartile distance of host_s reached 26%, as slow host periods of seconds
// caught every repetition of the single long simulation.
constexpr int kServeWindows = 4;
constexpr double kServeWindowS = 7.0;

// The nominal scenario's deadlines are ~3x the contended p99 of its 0.4 s
// window. Over a long window a few requests per seed still queued past them
// (0 to 3 of ~1100 in five seeds), so the failed count depended on the
// seed; with twice those deadlines no request of 40 seeds tried failed.
constexpr double kServeDeadlineScale = 2.0;

struct WorkloadDef {
  std::string name;
  std::vector<std::string> kernels;  // empty for the serving workload
  std::vector<std::string> scheds;
  std::vector<std::pair<std::string, std::string>> env;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      // The paper's Fig. 2 experiment: the bandwidth solver dominates.
      {"taskloop-paper", il::kernels::kernel_names(), {"baseline", "ilan"}, {}},
      // Enlarged DAGs: the engine, runtime and scheduler dominate.
      {"taskgraph-large",
       il::kernels::dag_kernel_names(),
       {"baseline", "ilan", "composed:dist=dep-aware"},
       {{"ILAN_DAG_TILE", "32"}, {"ILAN_DAG_LEAVES", "4096"}, {"ILAN_DAG_PARTITIONS", "512"}}},
      // Open-loop serving: many small concurrent taskloops plus admission.
      {"serve-openloop", {}, {"ilan"}, {}},
  };
  return defs;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& d : workload_defs()) {
    if (d.name == name) return d;
  }
  std::string known;
  for (const auto& d : workload_defs()) known += (known.empty() ? "" : ", ") + d.name;
  throw std::invalid_argument("unknown workload '" + name + "' (" + known + ")");
}

il::serve::TrafficSpec serve_traffic() {
  il::serve::TrafficSpec spec = il::serve::make_scenario("nominal");
  spec.name = "nominal-openloop";
  spec.duration_s = kServeWindowS;
  spec.max_requests = 100000;
  for (auto& c : spec.classes) c.deadline_s *= kServeDeadlineScale;
  return spec;
}

// ilan_speedup on the serving workload: each request class runs alone,
// kClassJobs jobs back to back on one team as a tenant runs them (enough
// for ILAN's per-loop search to settle), under baseline and under ilan, on
// a machine with its noise model off. With noise on, jobs this small made
// the geomean spread 1.06-1.22 over ten seeds even with ten machines per
// class; a baseline replay of the served traffic spread 1.05-1.43 and
// missed a deadline. Noise-free, the figure depends on the code alone.
constexpr int kClassJobs = 16;

// One simulation of the set. Simulations of one program share a machine
// seed, so their makespans compare on the same noise realization.
struct SimDef {
  std::string name;    // program label
  std::string kernel;  // empty: the serving simulation
  std::string sched;
  std::uint64_t seed = 0;
  il::kernels::KernelOptions opts;
  int jobs = 1;       // Program::run calls on one team
  bool noise = true;  // the machine's noise model
  [[nodiscard]] bool serve() const { return kernel.empty(); }
  [[nodiscard]] std::string label() const { return name + "/" + sched; }
};

std::vector<SimDef> make_sims(const WorkloadDef& w, std::uint64_t seed) {
  std::vector<SimDef> sims;
  const auto sim_seed = [&](std::size_t slot) {
    return il::sim::Engine::mix64(seed * 0x9E3779B97F4A7C15ull + slot + 1);
  };
  if (w.kernels.empty()) {
    for (int k = 0; k < kServeWindows; ++k) {
      for (const auto& s : w.scheds) {
        sims.push_back(SimDef{"serve-w" + std::to_string(k), "", s,
                              sim_seed(static_cast<std::size_t>(k)), {}, 1});
      }
    }
    const auto classes = serve_traffic().classes;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      char name[64];
      std::snprintf(name, sizeof(name), "class-%s@%g", classes[c].kernel.c_str(),
                    classes[c].opts.size_factor);
      for (const char* s : {"baseline", "ilan"}) {
        sims.push_back(SimDef{name, classes[c].kernel, s, sim_seed(kServeWindows + c),
                              classes[c].opts, kClassJobs, /*noise=*/false});
      }
    }
    return sims;
  }
  for (std::size_t k = 0; k < w.kernels.size(); ++k) {
    for (const auto& s : w.scheds) {
      sims.push_back(SimDef{w.kernels[k], w.kernels[k], s, sim_seed(k), {}, 1});
    }
  }
  return sims;
}

// Per-layer figures of one traced repetition of one simulation.
struct Layer {
  double taskloop_s = 0.0;
  double taskgraph_s = 0.0;
  double serve_run_s = 0.0;
  CallStat demand;
  SchedStats sched;
  std::map<il::sim::EventTag, std::int64_t> tags;
  il::obs::MetricsRegistry metrics;
};

// Everything one repetition of one simulation needs, built before timing.
struct Instance {
  const SimDef* def = nullptr;
  bool traced = false;
  std::unique_ptr<il::rt::Machine> machine;
  il::obs::MetricsRegistry metrics;
  SchedStats sched_stats;
  CallStat demand;
  std::unique_ptr<il::rt::Scheduler> scheduler;
  std::unique_ptr<il::rt::Team> team;
  il::kernels::Program program;
  Recorder recorder;
  il::serve::TrafficSpec traffic;
  std::vector<il::serve::Request> generated;
  std::unique_ptr<il::serve::Server> server;
  double topo_build_s = 0.0;
  double kernels_build_s = 0.0;
  double generate_s = 0.0;
};

void wrap_demand(il::rt::DemandFn& fn, CallStat& stat) {
  fn = [inner = std::move(fn), &stat](std::int64_t b, std::int64_t e) {
    const auto t0 = Clock::now();
    il::rt::TaskDemand d = inner(b, e);
    stat.seconds += seconds_since(t0);
    ++stat.calls;
    return d;
  };
}

std::unique_ptr<Instance> build(const SimDef& def, bool traced) {
  auto inst = std::make_unique<Instance>();
  inst->def = &def;
  inst->traced = traced;
  auto t0 = Clock::now();
  il::rt::MachineParams params;
  params.spec = il::topo::make_machine_spec(kTopology);
  params.seed = def.seed;
  params.noise.enabled = def.noise;
  inst->machine = std::make_unique<il::rt::Machine>(params);
  inst->topo_build_s = seconds_since(t0);
  il::rt::Machine& m = *inst->machine;
  m.engine().set_digest_enabled(true);
  if (traced) m.set_metrics(&inst->metrics);  // before Team/Server: they cache handles

  if (def.serve()) {
    inst->traffic = serve_traffic();
    t0 = Clock::now();
    inst->generated = il::serve::generate(inst->traffic, m.seed());
    inst->generate_s = seconds_since(t0);
    inst->server = std::make_unique<il::serve::Server>(m, inst->traffic,
                                                       il::serve::ServeParams{}, def.sched);
    return inst;
  }

  inst->scheduler = il::sched::make_scheduler(def.sched);
  if (traced) {
    inst->scheduler =
        std::make_unique<TimedScheduler>(std::move(inst->scheduler), inst->sched_stats);
  }
  inst->team = std::make_unique<il::rt::Team>(m, *inst->scheduler);
  inst->team->set_observer(&inst->recorder);
  t0 = Clock::now();
  inst->program = il::kernels::make_kernel(def.kernel, m, def.opts);
  inst->kernels_build_s = seconds_since(t0);
  if (traced) {
    for (auto& l : inst->program.init_loops) wrap_demand(l.demand, inst->demand);
    for (auto& l : inst->program.step_loops) wrap_demand(l.demand, inst->demand);
    for (auto& g : inst->program.step_graphs) wrap_demand(g.demand, inst->demand);
  }
  return inst;
}

// Deterministic results of one simulation (identical in every repetition).
struct SimResult {
  double makespan_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  il::mem::SolverStats solver;
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  std::vector<double> task_latencies_s;  // kernel simulations: ready -> finish
  il::serve::ServeReport report;     // serving simulation
  std::vector<double> latencies_s;   // serving: in-deadline, all tenants
};

struct Repetition {
  double host_s = 0.0;
  SimResult result;
  Layer layer;
};

// Program::run, spelled out through the public Team API so each call gets
// its own span. The digest check proves it fires the same event stream.
il::sim::SimTime run_program_traced(Instance& inst, SpanLog& spans, Layer& layer) {
  il::rt::Team& team = *inst.team;
  const il::kernels::Program& p = inst.program;
  const il::sim::SimTime t0 = team.now();
  const auto loop = [&](const il::rt::TaskloopSpec& l) {
    const int id = spans.open("rt.taskloop " + l.name);
    team.run_taskloop(l);
    layer.taskloop_s += spans.close(id);
  };
  for (int job = 0; job < inst.def->jobs; ++job) {
    for (const auto& l : p.init_loops) loop(l);
    for (int t = 0; t < p.timesteps; ++t) {
      for (const auto& l : p.step_loops) loop(l);
      for (const auto& g : p.step_graphs) {
        const int id = spans.open("rt.taskgraph " + g.name);
        team.run_taskgraph(g);
        layer.taskgraph_s += spans.close(id);
      }
      if (p.per_step_serial.cpu_cycles > 0.0) {
        team.serial_compute(p.per_step_serial.cpu_cycles);
      }
    }
  }
  return team.now() - t0;
}

Repetition run(Instance& inst, SpanLog& spans, std::uint64_t trace_cap) {
  Repetition rep;
  il::rt::Machine& m = *inst.machine;
  if (inst.traced) m.engine().enable_trace(trace_cap);
  const auto t0 = Clock::now();
  if (inst.def->serve()) {
    const int id = inst.traced ? spans.open("serve.run") : -1;
    rep.result.report = inst.server->run();
    if (inst.traced) rep.layer.serve_run_s = spans.close(id);
    rep.host_s = seconds_since(t0);
    rep.result.makespan_s = rep.result.report.duration_s;
    for (const auto& t : rep.result.report.tenants) {
      rep.result.latencies_s.insert(rep.result.latencies_s.end(), t.latencies_s.begin(),
                                    t.latencies_s.end());
    }
  } else {
    il::sim::SimTime total = 0;
    if (inst.traced) {
      total = run_program_traced(inst, spans, rep.layer);
    } else {
      for (int job = 0; job < inst.def->jobs; ++job) total += inst.program.run(*inst.team);
    }
    rep.host_s = seconds_since(t0);
    rep.result.makespan_s = il::sim::to_seconds(total);
  }
  rep.result.digest = m.engine().event_digest();
  rep.result.events = m.engine().events_fired();
  rep.result.solver = m.memory().solver_stats();
  rep.result.local_bytes = m.memory().traffic().local_bytes;
  rep.result.remote_bytes = m.memory().traffic().remote_bytes;
  if (inst.traced) {
    for (const auto& ev : m.engine().trace()) ++rep.layer.tags[ev.tag];
    rep.layer.demand = inst.demand;
    rep.layer.sched = inst.sched_stats;
    rep.layer.metrics = inst.metrics;
  }
  return rep;
}

// --- correctness ------------------------------------------------------------

// `full` adds the costlier checks, made once per simulation, and collects
// the task latencies into `res`.
void check_kernel(const Instance& inst, SimResult& res, bool full,
                  std::vector<std::string>& errors) {
  const auto fail = [&](const std::string& what, const std::string& e) {
    if (!e.empty()) errors.push_back(inst.def->label() + ": " + what + ": " + e);
  };
  // Only ilan's task latencies enter the reported outcomes.
  const bool keep_latencies = inst.def->sched == "ilan";
  double cycles = 0.0;
  for (const ExecRecord& ex : inst.recorder.execs()) {
    std::vector<checks::Range> ranges;
    ranges.reserve(ex.tasks.size());
    for (const TaskRecord& t : ex.tasks) ranges.emplace_back(t.begin, t.end);
    const std::string name = ex.graph ? ex.graph->name : ex.spec->name;
    fail("tiling of " + name, checks::tiling(ex.iterations, std::move(ranges)));
    if (ex.graph != nullptr) {
      const auto n = static_cast<std::size_t>(ex.graph->num_nodes());
      std::vector<std::int32_t> runs(n, 0);
      std::vector<std::int64_t> start(n, 0);
      std::vector<std::int64_t> finish(n, 0);
      for (const TaskRecord& t : ex.tasks) {
        if (t.begin < 0 || static_cast<std::size_t>(t.begin) >= n) continue;  // tiling reports it
        const auto i = static_cast<std::size_t>(t.begin);
        ++runs[i];
        start[i] = t.start_ps;
        finish[i] = t.finish_ps;
      }
      fail("order of " + name, checks::dag_order(ex.graph->preds, runs, start, finish));
      if (full && keep_latencies) {
        // A node is ready when the graph started and its last predecessor
        // finished.
        for (const TaskRecord& t : ex.tasks) {
          if (t.begin < 0 || static_cast<std::size_t>(t.begin) >= n) continue;
          std::int64_t ready = ex.begin_ps;
          for (const std::int32_t p : ex.graph->preds[static_cast<std::size_t>(t.begin)]) {
            ready = std::max(ready, finish[static_cast<std::size_t>(p)]);
          }
          res.task_latencies_s.push_back(il::sim::to_seconds(t.finish_ps - ready));
        }
      }
    } else if (full && keep_latencies) {
      // Every chunk of a taskloop is ready once the execution began.
      for (const TaskRecord& t : ex.tasks) {
        res.task_latencies_s.push_back(il::sim::to_seconds(t.finish_ps - ex.begin_ps));
      }
    }
    if (full) {
      const il::rt::DemandFn& demand = ex.graph ? ex.graph->demand : ex.spec->demand;
      for (const TaskRecord& t : ex.tasks) cycles += demand(t.begin, t.end).cpu_cycles;
    }
  }
  if (!full) return;

  const il::topo::Topology& topo = inst.machine->topology();
  double peak_hz = 0.0;
  for (int c = 0; c < topo.num_cores(); ++c) {
    const double hz = topo.core(il::topo::CoreId(c)).base_freq_ghz * 1e9 *
                      inst.machine->noise().core_freq_factor(c);
    peak_hz = std::max(peak_hz, hz);
  }
  fail("makespan", checks::makespan_bound(res.makespan_s, cycles, topo.num_cores(), peak_hz));

  if (inst.def->sched == "ilan") {
    std::map<il::rt::LoopId, il::rt::LoopConfig> converged;
    for (const auto& s : inst.team->history()) converged[s.loop_id] = s.config;
    for (const auto& [id, cfg] : converged) {
      fail("ilan configuration of loop " + std::to_string(id),
           checks::whole_nodes(cfg.num_threads, cfg.node_mask.count(), topo.cores_per_node()));
    }
  }
}

void check_serve(const Instance& inst, const SimResult& res, std::vector<std::string>& errors) {
  const auto fail = [&](const std::string& what, const std::string& e) {
    if (!e.empty()) errors.push_back(inst.def->label() + ": " + what + ": " + e);
  };
  const auto& tenants = res.report.tenants;
  std::vector<std::int64_t> generated(inst.traffic.tenants.size(), 0);
  std::vector<std::vector<double>> deadlines(inst.traffic.tenants.size());
  for (const auto& r : inst.generated) {
    const auto t = static_cast<std::size_t>(r.tenant);
    ++generated[t];
    deadlines[t].push_back(inst.traffic.classes[static_cast<std::size_t>(r.cls)].deadline_s);
  }
  std::vector<std::int64_t> offered;
  for (const auto& t : tenants) offered.push_back(t.offered);
  fail("arrivals", checks::arrivals(generated, offered));
  for (std::size_t i = 0; i < tenants.size() && i < deadlines.size(); ++i) {
    const auto& t = tenants[i];
    fail("outcomes of " + t.name,
         checks::conservation(t.offered, t.ok, t.deadline_miss, t.expired, t.dropped));
    fail("latencies of " + t.name, checks::latencies(t.latencies_s, t.ok, deadlines[i]));
  }
}

// --- statistics ---------------------------------------------------------------

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Host CPU seconds this process has used since it started (exec). Anchored
// at the true process start and blind to time the host spends running
// other processes, which a cold set-up of a few milliseconds cannot average
// away.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident memory of this process image (VmHWM). getrusage's
// ru_maxrss is no substitute: it survives exec, so it would report the
// launching process's peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Isolated FlowNetwork::solve on a paper-machine-shaped problem: 8 memory
// controllers, 2 cross-socket links, one constraint per busy core, and per
// task one local stream plus one remote stream across the link.
double solve_ns(int tasks) {
  constexpr int kNodes = 8;
  constexpr int kCores = 64;
  il::mem::FlowNetwork net;
  std::vector<il::mem::FlowNetwork::ConstraintIdx> ctrl;
  for (int n = 0; n < kNodes; ++n) ctrl.push_back(net.add_constraint(90e9));
  const auto link01 = net.add_constraint(152e9);
  const auto link10 = net.add_constraint(152e9);
  for (int t = 0; t < tasks; ++t) {
    const int home = (t % kCores) / (kCores / kNodes);
    const int remote = (home + kNodes / 2) % kNodes;
    const auto core = net.add_constraint(22e9);
    const il::mem::FlowNetwork::ConstraintIdx local_cs[2] = {
        ctrl[static_cast<std::size_t>(home)], core};
    net.add_flow(22e9, 1.0, local_cs);
    const il::mem::FlowNetwork::ConstraintIdx remote_cs[3] = {
        ctrl[static_cast<std::size_t>(remote)], core, home < kNodes / 2 ? link01 : link10};
    net.add_flow(18e9, 1.3, remote_cs);
  }
  net.solve();
  int batch = 1;
  for (auto t0 = Clock::now(); seconds_since(t0) < 1e-3; batch *= 2) {
    t0 = Clock::now();
    for (int i = 0; i < batch; ++i) net.solve();
  }
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < 15; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) net.solve();
    best = std::min(best, seconds_since(t0) / batch);
  }
  return best * 1e9;
}

struct DeltaCounts {
  std::uint64_t solves = 0;
  std::uint64_t rounds_total = 0;
  std::uint64_t rounds_reused = 0;
};

// Reads the journal-replay counters while SolverStats still has them; they
// read 0 once the replay path is deleted, and this file still compiles.
template <typename S>
DeltaCounts delta_counts(const S& s) {
  if constexpr (requires { s.delta_solves; s.delta_rounds_total; s.delta_rounds_reused; }) {
    return {s.delta_solves, s.delta_rounds_total, s.delta_rounds_reused};
  } else {
    return {};
  }
}

std::int64_t counter(const il::obs::MetricsRegistry& m, std::string_view name) {
  const il::obs::Counter* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

struct Track {
  SimDef def;
  std::string resolved_sched;
  bool have_ref = false;
  SimResult ref;
  double best_untraced = std::numeric_limits<double>::infinity();
  double best_traced = std::numeric_limits<double>::infinity();
  Layer best_layer;
  double topo_build_s = 0.0;
  double kernels_build_s = 0.0;
  double generate_s = 0.0;
  int repetitions = 0;
};

// Geomean over programs of the simulated makespan, baseline / ilan.
double geomean_speedup(const std::vector<Track>& tracks) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& b : tracks) {
    if (b.def.sched != "baseline") continue;
    for (const auto& i : tracks) {
      if (i.def.sched == "ilan" && i.def.name == b.def.name) {
        log_sum += std::log(b.ref.makespan_s / i.ref.makespan_s);
        ++n;
      }
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& d : workload_defs()) n.push_back(d.name);
    return n;
  }();
  return names;
}

void set_workload_environment(const std::string& workload) {
  const WorkloadDef& w = find_workload(workload);
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.starts_with("ILAN_")) inherited.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& name : inherited) unsetenv(name.c_str());
  for (const auto& [k, v] : w.env) setenv(k.c_str(), v.c_str(), 1);
}

Result run_workload(const Options& opts, Clock::time_point process_start) {
  const WorkloadDef& w = find_workload(opts.workload);
  std::vector<Track> tracks;
  for (auto& def : make_sims(w, opts.seed)) {
    Track t;
    t.def = std::move(def);
    t.resolved_sched = il::sched::resolve_spec(t.def.sched);
    tracks.push_back(std::move(t));
  }
  SpanLog spans(process_start);
  Result res;
  std::vector<std::string> errors;

  // Round 0 is built cold and untraced: it is the set-up setup_s times,
  // and its results are the reference every later repetition must match.
  const auto build_round = [&](bool traced) {
    std::vector<std::unique_ptr<Instance>> set;
    for (const auto& t : tracks) set.push_back(build(t.def, traced));
    return set;
  };
  const int setup_span = spans.open("setup");
  auto set = build_round(false);
  spans.close(setup_span);
  const double setup_s = process_cpu_s();

  double rss_mb = 0.0;
  const auto measure_start = Clock::now();
  const int run_span = spans.open("measure");
  for (int round = 0;; ++round) {
    const bool traced = opts.trace && round % 2 == 1;
    const int round_span = spans.open(traced ? "round traced" : "round");
    if (round > 0) set = build_round(traced);
    const std::size_t n = tracks.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(round)) % n;
      Track& tr = tracks[i];
      Instance& inst = *set[i];
      // Operations: one per kernel simulation, one per generated request.
      const auto ops =
          tr.def.serve() ? static_cast<std::int64_t>(inst.generated.size()) : std::int64_t{1};
      res.attempted += ops;
      const int sim_span = spans.open("sim " + tr.def.label());
      Repetition rep;
      try {
        rep = run(inst, spans, tr.have_ref ? tr.ref.events + 1 : 0);
      } catch (const std::exception& e) {
        spans.close(sim_span);
        std::fprintf(stderr, "simbench: %s failed: %s\n", tr.def.label().c_str(), e.what());
        res.failed += ops;
        set[i].reset();
        continue;
      }
      spans.close(sim_span);
      const bool first = !tr.have_ref;
      if (tr.def.serve()) {
        check_serve(inst, rep.result, errors);
      } else {
        check_kernel(inst, rep.result, /*full=*/first, errors);
      }
      if (first) {
        tr.ref = rep.result;
        tr.have_ref = true;
        tr.topo_build_s = inst.topo_build_s;
        tr.kernels_build_s = inst.kernels_build_s;
        tr.generate_s = inst.generate_s;
      } else if (const std::string e = checks::same_digest(tr.ref.digest, rep.result.digest);
                 !e.empty()) {
        errors.push_back(tr.def.label() + (traced ? ": traced run: " : ": repetition: ") + e);
      }
      // A request that missed its deadline or was shed is a failed one.
      if (tr.def.serve()) res.failed += ops - rep.result.report.ok;
      if (traced) {
        if (rep.host_s < tr.best_traced) {
          tr.best_traced = rep.host_s;
          tr.best_layer = std::move(rep.layer);
        }
      } else {
        tr.best_untraced = std::min(tr.best_untraced, rep.host_s);
      }
      ++tr.repetitions;
      set[i].reset();
    }
    spans.close(round_span);
    // Peak memory of one cold set-up plus one pass, before repetitions
    // that only reuse freed memory can make it depend on the run length.
    if (round == 0) rss_mb = peak_rss_mb();
    const bool enough = !opts.trace || round >= 1;
    if (enough && seconds_since(measure_start) >= opts.seconds) break;
  }
  spans.close(run_span);

  for (const auto& t : tracks) {
    if (!t.have_ref) errors.push_back(t.def.label() + ": no repetition completed");
  }
  for (const auto& e : errors) std::fprintf(stderr, "simbench: check failed: %s\n", e.c_str());
  res.correct = errors.empty();

  // --- report ---------------------------------------------------------------
  std::printf("# workload %s seed %llu topology %s\n", w.name.c_str(),
              static_cast<unsigned long long>(opts.seed),
              il::topo::resolve_topo_spec(kTopology).c_str());
  for (const auto& [k, v] : w.env) std::printf("# env %s=%s\n", k.c_str(), v.c_str());
  double host_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t events = 0;
  for (const auto& t : tracks) {
    std::printf("# sim %-28s sched %s seed %016llx makespan_s %.9g events %llu digest %016llx "
                "host_min_s %.6f reps %d\n",
                t.def.label().c_str(), t.resolved_sched.c_str(),
                static_cast<unsigned long long>(t.def.seed), t.ref.makespan_s,
                static_cast<unsigned long long>(t.ref.events),
                static_cast<unsigned long long>(t.ref.digest), t.best_untraced,
                t.repetitions);
    if (std::isfinite(t.best_untraced)) host_s += t.best_untraced;
    if (std::isfinite(t.best_traced)) traced_s += t.best_traced;
    events += t.ref.events;
  }

  const auto add = [&](std::string name, double value, std::string unit) {
    res.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  if (!opts.trace) {
    // Simulated outcomes under ilan. A request is a served request on the
    // serving workload and one task (a taskloop chunk or a graph node) on
    // the kernel workloads.
    const double speedup = geomean_speedup(tracks);
    double completed = 0.0;
    double duration = 0.0;
    std::vector<double> lat;
    for (const auto& t : tracks) {
      if (t.def.sched != "ilan" || t.def.serve() != w.kernels.empty()) continue;
      const auto& l = t.def.serve() ? t.ref.latencies_s : t.ref.task_latencies_s;
      lat.insert(lat.end(), l.begin(), l.end());
      completed += t.def.serve() ? static_cast<double>(t.ref.report.ok)
                                 : static_cast<double>(l.size());
      duration += t.ref.makespan_s;
    }
    const double goodput = duration > 0.0 ? completed / duration : 0.0;
    add("host_s", host_s, "s");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss_mb, "MB");
    add("ilan_speedup", speedup, "x");
    add("goodput_rps", goodput, "req/s");
    add("p50_latency_ms", percentile(lat, 0.50) * 1e3, "ms");
    add("p99_latency_ms", percentile(lat, 0.99) * 1e3, "ms");
    std::printf("# latency samples %zu\n", lat.size());
    return res;
  }

  // --- per-layer (traced run) -------------------------------------------------
  Layer sum;
  il::mem::SolverStats st;
  double local_bytes = 0.0, remote_bytes = 0.0;
  double topo_build_s = 0.0, kernels_build_s = 0.0, generate_s = 0.0;
  for (const auto& t : tracks) {
    const Layer& l = t.best_layer;
    sum.taskloop_s += l.taskloop_s;
    sum.taskgraph_s += l.taskgraph_s;
    sum.serve_run_s += l.serve_run_s;
    sum.demand.calls += l.demand.calls;
    sum.demand.seconds += l.demand.seconds;
    sum.sched.add(l.sched);
    for (const auto& [tag, c] : l.tags) sum.tags[tag] += c;
    sum.metrics.merge(l.metrics);
    const auto& s = t.ref.solver;
    st.resolves += s.resolves;
    st.full_builds += s.full_builds;
    st.cap_updates += s.cap_updates;
    st.skipped += s.skipped;
    st.coalesced += s.coalesced;
    st.compactions += s.compactions;
    local_bytes += t.ref.local_bytes;
    remote_bytes += t.ref.remote_bytes;
    topo_build_s += t.topo_build_s;
    kernels_build_s += t.kernels_build_s;
    generate_s += t.generate_s;
  }
  DeltaCounts delta;
  for (const auto& t : tracks) {
    const DeltaCounts d = delta_counts(t.ref.solver);
    delta.solves += d.solves;
    delta.rounds_total += d.rounds_total;
    delta.rounds_reused += d.rounds_reused;
  }

  add("trace.host_s", traced_s, "s");
  add("trace.untraced_host_s", host_s, "s");
  add("trace.overhead_s", traced_s - host_s, "s");

  add("sim.events", static_cast<double>(events), "count");
  add("sim.ns_per_event", events > 0 ? host_s / static_cast<double>(events) * 1e9 : 0.0, "ns");
  for (const il::sim::EventTag tag :
       {il::sim::kTagWorkerWake, il::sim::kTagTaskStart, il::sim::kTagBarrierRelease,
        il::sim::kTagMemResolve, il::sim::kTagMemComplete, il::sim::kTagDagRelease,
        il::sim::kTagServeArrival, il::sim::kTagServeRetry, il::sim::kTagServeDeadline}) {
    add(std::string("sim.events.") + il::sim::tag_name(tag),
        static_cast<double>(sum.tags.contains(tag) ? sum.tags.at(tag) : 0), "count");
  }

  add("mem.resolves", static_cast<double>(st.resolves), "count");
  add("mem.full_builds", static_cast<double>(st.full_builds), "count");
  add("mem.cap_updates", static_cast<double>(st.cap_updates), "count");
  add("mem.skipped", static_cast<double>(st.skipped), "count");
  add("mem.coalesced", static_cast<double>(st.coalesced), "count");
  add("mem.compactions", static_cast<double>(st.compactions), "count");
  add("mem.delta_solves", static_cast<double>(delta.solves), "count");
  add("mem.delta_rounds_total", static_cast<double>(delta.rounds_total), "count");
  add("mem.delta_rounds_reused", static_cast<double>(delta.rounds_reused), "count");
  add("mem.hit_rate", st.hit_rate(), "ratio");
  add("mem.local_bytes", local_bytes, "B");
  add("mem.remote_bytes", remote_bytes, "B");
  add("mem.solve_ns.t16", solve_ns(16), "ns");
  add("mem.solve_ns.t64", solve_ns(64), "ns");

  add("rt.taskloop_s", sum.taskloop_s, "s");
  add("rt.taskgraph_s", sum.taskgraph_s, "s");
  for (const char* name : {"rt.tasks_executed", "rt.loops", "rt.steal.intra_node",
                           "rt.steal.cross_node", "rt.steal.rescue"}) {
    add(name, static_cast<double>(counter(sum.metrics, name)), "count");
  }

  const std::pair<const char*, const CallStat*> calls[] = {
      {"select_config", &sum.sched.select_config}, {"distribute", &sum.sched.distribute},
      {"acquire", &sum.sched.acquire},             {"place_ready", &sum.sched.place_ready},
      {"loop_finished", &sum.sched.loop_finished}};
  for (const auto& [name, stat] : calls) {
    add(std::string("sched.") + name + ".calls", static_cast<double>(stat->calls), "count");
    add(std::string("sched.") + name + "_s", stat->seconds, "s");
  }
  add("sched.acquire.hit_ratio",
      sum.sched.acquire.calls > 0 ? static_cast<double>(sum.sched.acquire_hits) /
                                        static_cast<double>(sum.sched.acquire.calls)
                                  : 0.0,
      "ratio");
  for (const char* name : {"ptt.probe", "ptt.lock", "ptt.reexplore", "core.dist.strict_tasks",
                           "core.dist.stealable_tasks"}) {
    add(name, static_cast<double>(counter(sum.metrics, name)), "count");
  }

  add("kernels.build_s", kernels_build_s, "s");
  add("kernels.demand_calls", static_cast<double>(sum.demand.calls), "count");
  add("kernels.demand_s", sum.demand.seconds, "s");
  add("topo.build_s", topo_build_s, "s");

  add("serve.generate_s", generate_s, "s");
  add("serve.run_s", sum.serve_run_s, "s");
  for (const char* name : {"serve.offered", "serve.admitted", "serve.completed", "serve.ok",
                           "serve.shed.queue", "serve.shed.slo", "serve.shed.breaker",
                           "serve.retries"}) {
    add(name, static_cast<double>(counter(sum.metrics, name)), "count");
  }

  if (!opts.spans_path.empty()) {
    std::ofstream out(opts.spans_path);
    spans.write_chrome(out);
    if (!out) throw std::runtime_error("cannot write spans to " + opts.spans_path);
    std::printf("# spans %zu written to %s\n", spans.size(), opts.spans_path.c_str());
  }
  return res;
}

}  // namespace simbench
