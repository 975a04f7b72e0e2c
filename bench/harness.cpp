#include "harness.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <unistd.h>

#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/determinism.hpp"
#include "analysis/race_auditor.hpp"
#include "core/backoff.hpp"
#include "fault/injector.hpp"
#include "obs/env.hpp"
#include "rt/team.hpp"
#include "sched/registry.hpp"
#include "topo/format.hpp"
#include "topo/presets.hpp"
#include "topo/registry.hpp"
#include "trace/chrome_trace.hpp"

namespace ilan::bench {

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kWatchdog: return "watchdog";
    case RunStatus::kError: return "error";
  }
  return "?";
}

std::unique_ptr<rt::Scheduler> make_scheduler(const std::string& spec) {
  return sched::make_scheduler(spec);
}

std::vector<std::string> env_sched_list() {
  const char* v = std::getenv("ILAN_SCHED");
  if (v == nullptr || v[0] == '\0') {
    return {"baseline", "work-sharing", "ilan", "ilan-nomold"};
  }
  std::vector<std::string> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ';' || *p == '\0') {
      if (!item.empty()) out.push_back(item);
      item.clear();
      if (*p == '\0') break;
    } else {
      item += *p;
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("ILAN_SCHED='" + std::string(v) +
                                "': no scheduler specs found");
  }
  // Fail fast on a typo'd spec before any series burns host time.
  for (const auto& spec : out) (void)sched::resolve_spec(spec);
  return out;
}

bool list_schedulers_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--list-schedulers") {
      return true;
    }
  }
  return false;
}

int list_schedulers_main() {
  const auto& reg = sched::SchedulerRegistry::instance();
  std::printf("registered schedulers (spec grammar: name[:key=value,...]):\n\n");
  for (const auto& name : reg.names()) {
    std::printf("  %-14s %s\n", name.c_str(), reg.description(name).c_str());
    std::printf("  %-14s default spec: %s\n", "", reg.resolve(name).c_str());
  }
  std::printf("\nselect via ILAN_SCHED (';'-separated list of specs)\n");
  return 0;
}

bool list_topologies_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--list-topologies") {
      return true;
    }
  }
  return false;
}

int list_topologies_main() {
  const auto& reg = topo::TopologyRegistry::instance();
  std::printf("registered topologies (spec grammar: name[:key=value,...]):\n\n");
  for (const auto& name : reg.names()) {
    std::printf("  %-14s %s\n", name.c_str(), reg.description(name).c_str());
    std::printf("  %-14s default spec: %s\n", "", reg.resolve(name).c_str());
  }
  std::printf("\nselect via ILAN_TOPO (single spec; default zen4)\n");
  return 0;
}

rt::MachineParams paper_machine(std::uint64_t seed) {
  rt::MachineParams p;
  p.spec = topo::machine_spec_from_env();
  // Calibrated model parameters (== MemParams defaults; spelled out here so
  // the experiment configuration is explicit and greppable).
  p.mem.remote_eff_exponent = 0.22;
  p.mem.congestion_beta = 0.50;
  p.mem.congestion_knee = 3.0;
  p.mem.congestion_derate_max = 3.5;
  p.mem.gather_bw_factor = 0.35;
  p.mem.gather_lat_beta = 0.75;
  p.mem.gather_lat_knee = 3.0;
  p.seed = seed;
  return p;
}

namespace {

// ILAN_AUDIT is comma-separated; "all" switches everything on.
bool audit_requested(const char* what) {
  const char* v = std::getenv("ILAN_AUDIT");
  if (v == nullptr) return false;
  const std::string s(v);
  if (s.find("all") != std::string::npos) return true;
  return s.find(what) != std::string::npos;
}

// Arms the ILAN_FAULTS plan against a fresh machine; nullptr when no faults
// are requested. The realization is a pure function of (spec, seed,
// topology), so every worker thread arms an identical plan for a given run.
// Attempt 1 keeps the seed untouched (bit-compatible with every historical
// digest); attempt > 1 salts the realization seed, so a run that hit the
// watchdog under one fault realization can legitimately pass on retry under
// a different realization of the same scenario spec.
std::unique_ptr<fault::FaultInjector> arm_env_faults(rt::Machine& machine,
                                                     std::uint64_t seed,
                                                     int attempt = 1) {
  const std::string spec = env_faults();
  if (spec.empty()) return nullptr;
  const std::uint64_t fault_seed =
      attempt <= 1 ? seed
                   : sim::Engine::mix64(seed ^ (0x9E3779B97F4A7C15ULL *
                                                static_cast<std::uint64_t>(attempt)));
  fault::FaultPlan plan = fault::parse_plan(spec, fault_seed, machine.topology());
  if (plan.empty()) return nullptr;
  auto inj = std::make_unique<fault::FaultInjector>(machine, std::move(plan));
  inj->arm();
  return inj;
}

// End-of-run export of machine-side observability that is accumulated in
// plain members (the mem hot path never touches the registry): per-node
// traffic split, controller stream pressure high-water marks, and the
// resolve-cache counters.
void export_machine_metrics(rt::Machine& machine, obs::MetricsRegistry& m) {
  const auto src = machine.memory().node_src_bytes();
  const auto peak = machine.memory().node_peak_streams();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::string node = "mem.node" + std::to_string(i);
    m.gauge(node + ".src_bytes").set(src[i]);
    m.gauge(node + ".peak_streams").set(peak[i]);
  }
  const mem::SolverStats& st = machine.memory().solver_stats();
  m.counter("mem.solver.resolves").inc(static_cast<std::int64_t>(st.resolves));
  m.counter("mem.solver.full_builds").inc(static_cast<std::int64_t>(st.full_builds));
  m.counter("mem.solver.cap_updates").inc(static_cast<std::int64_t>(st.cap_updates));
  m.counter("mem.solver.skipped").inc(static_cast<std::int64_t>(st.skipped));
  m.counter("mem.solver.coalesced").inc(static_cast<std::int64_t>(st.coalesced));
  m.counter("mem.solver.compactions").inc(static_cast<std::int64_t>(st.compactions));
  m.counter("mem.solver.flows_reclaimed")
      .inc(static_cast<std::int64_t>(st.flows_reclaimed));
}

}  // namespace

namespace {

// Spec strings go into TRACE_ filenames; ':', ',' and '=' become '-' so a
// "manual:threads=16" trace is still a sane path component.
std::string sanitize_for_path(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!keep) c = '-';
  }
  return out;
}

}  // namespace

RunResult run_once(const std::string& kernel, const std::string& sched_spec,
                   std::uint64_t seed, const kernels::KernelOptions& opts,
                   int attempt) {
  const auto host_start = std::chrono::steady_clock::now();
  rt::Machine machine(paper_machine(seed));
  machine.engine().set_digest_enabled(true);
  obs::MetricsRegistry metrics;
  const bool want_metrics = obs::env_flag("ILAN_METRICS");
  if (want_metrics) machine.set_metrics(&metrics);  // before Team: handles cache
  trace::ChromeTraceWriter tracer;
  const bool want_trace = obs::env_flag("ILAN_TRACE");
  auto scheduler = make_scheduler(sched_spec);
  rt::Team team(machine, *scheduler);
  if (want_trace) team.set_tracer(&tracer);
  const auto injector = arm_env_faults(machine, seed, attempt);
  if (const double wd = env_watchdog_s(); wd > 0.0) {
    team.set_deadline(sim::from_seconds(wd));
  }
  std::unique_ptr<analysis::RaceAuditor> auditor;
  if (audit_requested("race")) {
    auditor = std::make_unique<analysis::RaceAuditor>(analysis::RaceAuditorOptions{},
                                                      &machine.regions());
    team.set_observer(auditor.get());
  }
  const auto program = kernels::make_kernel(kernel, machine, opts);

  RunResult r;
  r.seed = seed;
  sim::SimTime total = 0;
  try {
    total = program.run(team);
  } catch (const rt::WatchdogTimeout& e) {
    // A hung run becomes a structured failure record with whatever
    // telemetry the partial execution produced — never a hang, never an
    // uncaught throw out of the worker pool.
    r.status = RunStatus::kWatchdog;
    r.error = e.what();
    total = machine.engine().now();
  }
  if (auditor && !auditor->clean()) {
    const auto& rep = auditor->reports().front();
    throw std::runtime_error("ILAN_AUDIT: " + std::string(kernel) + "/" +
                             sched_spec + ": " +
                             std::string(analysis::to_string(rep.kind)) + ": " +
                             rep.message);
  }

  r.total_s = sim::to_seconds(total);
  r.avg_threads = team.weighted_avg_threads();
  r.overhead = team.overhead();
  r.overhead_s = sim::to_seconds(team.overhead().grand_total());
  for (const auto& s : team.history()) {
    r.steals_local += s.steals_local;
    r.steals_remote += s.steals_remote;
  }
  r.local_bytes = machine.memory().traffic().local_bytes;
  r.remote_bytes = machine.memory().traffic().remote_bytes;

  // Last-seen configuration per loop id (== the converged configuration
  // once the search has finished).
  std::map<rt::LoopId, const rt::LoopExecStats*> last;
  for (const auto& s : team.history()) last[s.loop_id] = &s;
  for (const auto& [id, s] : last) {
    if (!r.final_configs.empty()) r.final_configs += ' ';
    r.final_configs += std::to_string(id) + ":" +
                       std::to_string(s->config.num_threads) + "/" +
                       (s->config.steal_policy == rt::StealPolicy::kStrict ? "s" : "f");
  }
  r.events_fired = machine.engine().events_fired();
  r.event_digest = machine.engine().event_digest();
  r.solver = machine.memory().solver_stats();

  // Fault + graceful-degradation telemetry.
  if (injector) {
    r.faults_applied = injector->applications();
    r.faults_reverted = injector->reversions();
    const auto targets = injector->degraded_targets();
    const int nn = machine.topology().num_nodes();
    for (const auto& s : team.history()) {
      // A demoted execution ran on a narrowed mask that excludes some node
      // a degrade/offline clause targets — the scheduler routed around it.
      if (s.config.node_mask.count() == nn) continue;
      for (const topo::NodeId n : targets) {
        if (!s.config.node_mask.test(n)) {
          ++r.demoted_execs;
          break;
        }
      }
    }
  }
  const rt::SchedulerInfo info = scheduler->introspect();
  r.reexplorations = info.total_reexplorations;
  r.resolved_spec = info.spec;
  r.steals_escalated = team.total_escalated_steals();

  if (want_metrics) {
    export_machine_metrics(machine, metrics);
    r.metrics = metrics;
    r.metrics_digest = r.metrics.digest();
  }
  if (want_trace) {
    if (injector) {
      for (const auto& sp : injector->collect_spans(machine.engine().now())) {
        tracer.add_span(trace::SpanEvent{sp.label, sp.start, sp.end});
      }
    }
    const std::string path = "TRACE_" + kernel + "_" + sanitize_for_path(sched_spec) +
                             "_seed" + std::to_string(seed) + ".json";
    std::ofstream out(path);
    if (out) tracer.write(out);
  }
  r.host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  return r;
}

std::vector<double> Series::times() const {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const auto& r : runs) {
    if (r.ok()) out.push_back(r.total_s);
  }
  return out;
}

trace::SampleSummary Series::time_summary() const { return trace::summarize(times()); }

double Series::mean_avg_threads() const {
  double s = 0.0;
  int n = 0;
  for (const auto& r : runs) {
    if (!r.ok()) continue;
    s += r.avg_threads;
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

double Series::mean_overhead_s() const {
  double s = 0.0;
  int n = 0;
  for (const auto& r : runs) {
    if (!r.ok()) continue;
    s += r.overhead_s;
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

int Series::ok_count() const {
  int n = 0;
  for (const auto& r : runs) n += r.ok() ? 1 : 0;
  return n;
}

int Series::failed_count() const { return static_cast<int>(runs.size()) - ok_count(); }

int Series::watchdog_count() const {
  int n = 0;
  for (const auto& r : runs) n += r.status == RunStatus::kWatchdog ? 1 : 0;
  return n;
}

int Series::error_count() const {
  int n = 0;
  for (const auto& r : runs) n += r.status == RunStatus::kError ? 1 : 0;
  return n;
}

int Series::retry_attempts() const {
  int n = 0;
  for (const auto& r : runs) n += r.attempts > 1 ? r.attempts - 1 : 0;
  return n;
}

std::uint64_t Series::total_events_fired() const {
  std::uint64_t n = 0;
  for (const auto& r : runs) n += r.events_fired;
  return n;
}

mem::SolverStats Series::solver_totals() const {
  mem::SolverStats t;
  for (const auto& r : runs) {
    t.resolves += r.solver.resolves;
    t.full_builds += r.solver.full_builds;
    t.cap_updates += r.solver.cap_updates;
    t.skipped += r.solver.skipped;
    t.coalesced += r.solver.coalesced;
    t.compactions += r.solver.compactions;
    t.flows_reclaimed += r.solver.flows_reclaimed;
  }
  return t;
}

obs::MetricsRegistry Series::metrics_totals() const {
  obs::MetricsRegistry total;
  for (const auto& r : runs) {
    if (r.ok()) total.merge(r.metrics);
  }
  return total;
}

namespace {

// Telemetry registry behind BENCH_<name>.json. run_many() appends one entry
// per series; the file is written once, at process exit.
struct BenchEntry {
  std::string kernel;
  std::string sched;  // the spec the caller asked for (table/figure label)
  std::string spec;   // fully-resolved spec the runs executed with
  std::string topo;   // fully-resolved ILAN_TOPO spec the runs simulated
  int runs = 0;
  int jobs = 0;
  int failures = 0;   // quarantined (watchdog/error) runs in the series
  int watchdogs = 0;  // ... of which RunStatus::kWatchdog
  int errors = 0;     // ... of which RunStatus::kError
  int retry_attempts = 0;  // extra attempts burned across the series
  // One record per quarantined run: the seed + reason that until now only
  // went to stderr, preserved in the json so a failed series is
  // reproducible (re-run run_once with the recorded seed) after the
  // terminal scrollback is gone.
  struct Quarantine {
    int run = 0;  // slot index in the series
    std::uint64_t seed = 0;
    RunStatus status = RunStatus::kError;
    int attempts = 1;
    std::string error;
  };
  std::vector<Quarantine> quarantined;
  double host_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // order-independent fold of per-run digests
  mem::SolverStats solver;
  trace::SampleSummary sim;
  obs::MetricsRegistry metrics;  // merged over the series (ILAN_METRICS)
};

// Minimal JSON string escaping for failure messages (quotes, backslashes,
// control characters); everything else the harness writes is
// ASCII-by-construction.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Per-run digests are folded commutatively so the series digest is identical
// no matter how runs were scheduled onto the worker pool.
std::uint64_t series_digest(const Series& s) {
  std::uint64_t d = 0;
  for (const auto& r : s.runs) d += sim::Engine::mix64(r.event_digest);
  return d;
}

std::mutex g_bench_mutex;
std::vector<BenchEntry>& bench_registry() {
  static std::vector<BenchEntry> reg;
  return reg;
}

std::string bench_name() {
  if (const char* v = std::getenv("ILAN_BENCH_NAME")) return v;
  // /proc/self/comm truncates to 15 chars; resolve the full executable name.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string exe(buf);
    const auto slash = exe.find_last_of('/');
    const std::string base = slash == std::string::npos ? exe : exe.substr(slash + 1);
    if (!base.empty()) return base;
  }
  return "bench";
}

void write_bench_json() {
  std::lock_guard<std::mutex> lock(g_bench_mutex);
  const auto& reg = bench_registry();
  if (reg.empty()) return;
  // Write-to-temp + rename: the final path either holds the previous
  // complete document or the new one, never a torn write (rename within a
  // directory is atomic on POSIX).
  const std::string path = "BENCH_" + bench_name() + ".json";
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"series\": [", bench_name().c_str());
  bool first = true;
  for (const auto& e : reg) {
    const double evps = e.host_s > 0.0 ? static_cast<double>(e.events) / e.host_s : 0.0;
    std::fprintf(f,
                 "%s\n    {\"kernel\": \"%s\", \"scheduler\": \"%s\", \"spec\": \"%s\", "
                 "\"topo\": \"%s\", "
                 "\"runs\": %d, "
                 "\"jobs\": %d, \"failures\": %d, \"watchdogs\": %d, \"errors\": %d, "
                 "\"retry_attempts\": %d,\n     \"host_s\": %.6g, \"events\": %llu, "
                 "\"digest\": \"%016llx\", "
                 "\"events_per_s\": %.6g,\n     \"sim_time_s\": {\"mean\": %.9g, "
                 "\"median\": %.9g, \"stddev\": %.6g, \"min\": %.9g, \"max\": %.9g},\n"
                 "     \"solver\": {\"resolves\": %llu, \"full_builds\": %llu, "
                 "\"cap_updates\": %llu, \"skipped\": %llu, \"coalesced\": %llu, "
                 "\"compactions\": %llu, \"flows_reclaimed\": %llu, \"hit_rate\": %.4f}",
                 first ? "" : ",", e.kernel.c_str(), e.sched.c_str(), e.spec.c_str(),
                 e.topo.c_str(), e.runs, e.jobs, e.failures, e.watchdogs, e.errors,
                 e.retry_attempts, e.host_s, static_cast<unsigned long long>(e.events),
                 static_cast<unsigned long long>(e.digest), evps, e.sim.mean,
                 e.sim.median, e.sim.stddev, e.sim.min, e.sim.max,
                 static_cast<unsigned long long>(e.solver.resolves),
                 static_cast<unsigned long long>(e.solver.full_builds),
                 static_cast<unsigned long long>(e.solver.cap_updates),
                 static_cast<unsigned long long>(e.solver.skipped),
                 static_cast<unsigned long long>(e.solver.coalesced),
                 static_cast<unsigned long long>(e.solver.compactions),
                 static_cast<unsigned long long>(e.solver.flows_reclaimed),
                 e.solver.hit_rate());
    if (!e.quarantined.empty()) {
      std::fprintf(f, ",\n     \"quarantined\": [");
      bool qfirst = true;
      for (const auto& q : e.quarantined) {
        std::fprintf(f,
                     "%s\n       {\"run\": %d, \"seed\": %llu, \"status\": \"%s\", "
                     "\"attempts\": %d, \"reason\": \"%s\"}",
                     qfirst ? "" : ",", q.run,
                     static_cast<unsigned long long>(q.seed), to_string(q.status),
                     q.attempts, json_escape(q.error).c_str());
        qfirst = false;
      }
      std::fprintf(f, "\n     ]");
    }
    if (!e.metrics.empty()) {
      std::fprintf(f, ",\n     \"metrics\": %s}", e.metrics.to_json().c_str());
    } else {
      std::fprintf(f, "}");
    }
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool write_ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (write_ok) {
    (void)std::rename(tmp.c_str(), path.c_str());
  } else {
    (void)std::remove(tmp.c_str());
  }
}

void register_series(const std::string& kernel, const std::string& sched_spec,
                     const Series& s, int jobs) {
  if (const char* v = std::getenv("ILAN_BENCH_JSON"); v != nullptr && v[0] == '0') return;
  std::lock_guard<std::mutex> lock(g_bench_mutex);
  auto& reg = bench_registry();
  if (reg.empty()) std::atexit(write_bench_json);
  BenchEntry e;
  e.kernel = kernel;
  e.sched = sched_spec;
  // Every run resolved the same spec; take it from the first successful one
  // (falling back to a fresh resolve when the whole series failed).
  for (const auto& r : s.runs) {
    if (!r.resolved_spec.empty()) {
      e.spec = r.resolved_spec;
      break;
    }
  }
  if (e.spec.empty()) e.spec = sched::resolve_spec(sched_spec);
  // The topology is process-global (ILAN_TOPO), resolved to its canonical
  // form so the json names the machine the series actually simulated.
  e.topo = topo::resolve_topo_spec(topo::env_topo_spec());
  e.runs = static_cast<int>(s.runs.size());
  e.jobs = jobs;
  e.failures = s.failed_count();
  e.watchdogs = s.watchdog_count();
  e.errors = s.error_count();
  e.retry_attempts = s.retry_attempts();
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const RunResult& r = s.runs[i];
    if (r.ok()) continue;
    e.quarantined.push_back(BenchEntry::Quarantine{
        static_cast<int>(i), r.seed, r.status, r.attempts, r.error});
  }
  e.host_s = s.host_s;
  e.events = s.total_events_fired();
  e.digest = series_digest(s);
  e.solver = s.solver_totals();
  e.sim = s.time_summary();
  e.metrics = s.metrics_totals();
  reg.push_back(std::move(e));
}

}  // namespace

Series run_many(const std::string& kernel, const std::string& sched_spec, int runs,
                std::uint64_t base_seed, const kernels::KernelOptions& opts) {
  Series s;
  if (runs <= 0) return s;
  s.runs.resize(static_cast<std::size_t>(runs));
  const auto t0 = std::chrono::steady_clock::now();
  const int jobs = std::min(env_jobs(), runs);
  const int retries = env_retries();
  // Watchdog hits come back as structured results, not exceptions. Without
  // faults the simulation is a pure function of the seed, so re-running the
  // same seed cannot pass and retrying would only burn host time; under a
  // non-trivial ILAN_FAULTS spec the retry re-rolls the fault realization
  // (attempt-salted in arm_env_faults), which CAN clear the watchdog.
  const std::string fault_spec = env_faults();
  const bool watchdog_retryable = !fault_spec.empty() && fault_spec != "none";
  // Seed and slot assignment are index-based, so results are identical to
  // the sequential loop no matter how runs land on workers. A failing run
  // never takes the series down: it is retried up to ILAN_BENCH_RETRIES
  // times — paced by the same seeded core::Backoff the serving layer uses,
  // so a transiently overloaded host is not hammered in lockstep — then
  // quarantined in place as a structured failure entry while the remaining
  // runs proceed.
  auto work = [&](int i) {
    const std::uint64_t run_seed =
        base_seed + 1000ull * (static_cast<std::uint64_t>(i) + 1);
    const core::Backoff backoff(run_seed, core::BackoffParams{});
    for (int attempt = 1;; ++attempt) {
      std::string what;
      try {
        RunResult r = run_once(kernel, sched_spec, run_seed, opts, attempt);
        const bool retry_watchdog = r.status == RunStatus::kWatchdog &&
                                    watchdog_retryable && attempt <= retries;
        if (!retry_watchdog) {
          r.attempts = attempt;
          if (r.status == RunStatus::kWatchdog && attempt > 1) {
            std::fprintf(stderr,
                         "run_many: %s/%s run %d (seed %llu) quarantined after %d "
                         "attempt(s): %s\n",
                         kernel.c_str(), sched_spec.c_str(), i,
                         static_cast<unsigned long long>(run_seed), attempt,
                         r.error.c_str());
          }
          s.runs[static_cast<std::size_t>(i)] = std::move(r);
          return;
        }
        what = r.error;
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
        what = "unknown exception";
      }
      if (attempt <= retries) {
        // Host-side pause; the delay value is deterministic, the pause has
        // no bearing on simulation results (slots are index-assigned).
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(backoff.delay(attempt) / 1000));
        continue;
      }
      RunResult r;
      r.status = RunStatus::kError;
      r.error = what;
      r.seed = run_seed;
      r.attempts = attempt;
      s.runs[static_cast<std::size_t>(i)] = std::move(r);
      std::fprintf(stderr,
                   "run_many: %s/%s run %d (seed %llu) quarantined after %d "
                   "attempt(s): %s\n",
                   kernel.c_str(), sched_spec.c_str(), i,
                   static_cast<unsigned long long>(run_seed), attempt, what.c_str());
      return;
    }
  };
  if (jobs <= 1) {
    for (int i = 0; i < runs; ++i) work(i);
  } else {
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= runs) return;
          work(i);  // never throws: failures land in the run's slot
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  s.host_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  register_series(kernel, sched_spec, s, jobs);
  return s;
}

// All knobs parse strictly (obs/env.hpp): std::atoi/std::atof silently
// mapped garbage and overflow to 0 — a typo'd ILAN_BENCH_RUNS=3O quietly
// ran the 30-run default. Malformed values now throw, naming the variable.
int env_runs(int fallback) {
  return obs::parse_env_int("ILAN_BENCH_RUNS", fallback, 1, 1000000);
}

int env_jobs() {
  // 0 (or unset) = hardware concurrency.
  const int n = obs::parse_env_int("ILAN_BENCH_JOBS", 0, 0, 4096);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::string env_faults() {
  const char* v = std::getenv("ILAN_FAULTS");
  return v == nullptr ? std::string() : std::string(v);
}

double env_watchdog_s() {
  return obs::parse_env_double("ILAN_WATCHDOG", 0.0, 0.0, 1e12);
}

int env_retries(int fallback) {
  return obs::parse_env_int("ILAN_BENCH_RETRIES", fallback, 0, 1000);
}

kernels::KernelOptions env_kernel_options() {
  kernels::KernelOptions opts;
  if (const int n = obs::parse_env_int("ILAN_BENCH_TIMESTEPS", 0, 1, 1000000000);
      n > 0) {
    opts.timesteps = n;
  }
  if (const double f = obs::parse_env_double("ILAN_BENCH_SIZE", 0.0, 1e-9, 1e9);
      f > 0.0) {
    opts.size_factor = f;
  }
  return opts;
}

const std::vector<std::string>& benchmarks() { return kernels::kernel_names(); }

namespace {

// One traced, audited run for selfcheck(). The trace cap is generous (64M
// entries ~ 1 GiB) because a truncated trace can only localise divergences
// inside the captured prefix.
constexpr std::size_t kSelfcheckTraceCap = std::size_t{1} << 26;

struct TracedRun {
  std::vector<sim::FiredEvent> trace;
  std::uint64_t digest = 0;
  std::uint64_t metrics_digest = 0;  // 0 with ILAN_METRICS off
  std::uint64_t events = 0;
  bool trace_truncated = false;
  std::size_t audit_reports = 0;
  std::string first_report;
};

TracedRun traced_run(const std::string& kernel, const std::string& sched_spec,
                     std::uint64_t seed, const kernels::KernelOptions& opts,
                     bool audit) {
  rt::Machine machine(paper_machine(seed));
  machine.engine().set_digest_enabled(true);
  machine.engine().enable_trace(kSelfcheckTraceCap);
  obs::MetricsRegistry metrics;
  const bool want_metrics = obs::env_flag("ILAN_METRICS");
  if (want_metrics) machine.set_metrics(&metrics);
  auto scheduler = make_scheduler(sched_spec);
  rt::Team team(machine, *scheduler);
  // ILAN_FAULTS applies here exactly as in run_once, so selfcheck's digest
  // parity covers perturbed simulations too (no watchdog: selfcheck wants
  // the full trace of both runs).
  const auto injector = arm_env_faults(machine, seed);
  analysis::RaceAuditor auditor(analysis::RaceAuditorOptions{}, &machine.regions());
  if (audit) team.set_observer(&auditor);
  const auto program = kernels::make_kernel(kernel, machine, opts);
  (void)program.run(team);

  TracedRun out;
  out.trace = machine.engine().trace();
  out.digest = machine.engine().event_digest();
  out.events = machine.engine().events_fired();
  out.trace_truncated = machine.engine().trace_truncated();
  if (want_metrics) {
    export_machine_metrics(machine, metrics);
    out.metrics_digest = metrics.digest();
  }
  if (audit) {
    out.audit_reports = auditor.reports().size();
    if (!auditor.clean()) {
      const auto& rep = auditor.reports().front();
      out.first_report =
          std::string(analysis::to_string(rep.kind)) + ": " + rep.message;
    }
  }
  return out;
}

}  // namespace

SelfcheckResult selfcheck(const std::string& kernel, const std::string& sched_spec,
                          std::uint64_t seed, const kernels::KernelOptions& opts) {
  SelfcheckResult r;
  r.kernel = kernel;
  r.sched = sched_spec;

  // Run A carries the race auditor; run B is a bare re-execution so the
  // digest comparison also covers "does observing the run perturb it".
  const TracedRun a = traced_run(kernel, sched_spec, seed, opts, /*audit=*/true);
  const TracedRun b = traced_run(kernel, sched_spec, seed, opts, /*audit=*/false);

  r.digest_a = a.digest;
  r.digest_b = b.digest;
  r.metrics_a = a.metrics_digest;
  r.metrics_b = b.metrics_digest;
  r.events = a.events;
  r.audit_reports = a.audit_reports;
  r.first_report = a.first_report;
  // Metrics digests must agree between the audited and the bare run: equal
  // event streams with diverging metrics would mean an instrumentation
  // point reads something other than simulated state.
  r.deterministic = a.digest == b.digest && a.events == b.events &&
                    a.metrics_digest == b.metrics_digest;
  if (!r.deterministic) {
    if (a.digest == b.digest && a.events == b.events) {
      r.divergence = "metrics digest mismatch with identical event streams";
    } else if (const auto div = analysis::compare_traces(a.trace, b.trace)) {
      r.divergence = analysis::describe_divergence(*div);
    } else {
      // Digests differ but the captured prefixes agree: the divergence is
      // past the trace cap.
      r.divergence = a.trace_truncated || b.trace_truncated
                         ? "divergence beyond trace capacity"
                         : "digest mismatch with identical traces";
    }
  }
  return r;
}

bool selfcheck_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--selfcheck") return true;
  }
  return false;
}

int selfcheck_main() {
  kernels::KernelOptions opts = env_kernel_options();
  // Default to a short run: selfcheck cares about determinism and audit
  // cleanliness, not converged performance. ILAN_BENCH_TIMESTEPS overrides.
  if (std::getenv("ILAN_BENCH_TIMESTEPS") == nullptr) opts.timesteps = 3;

  const std::vector<std::string> kinds = {"baseline", "work-sharing", "ilan",
                                          "ilan-nomold"};
  int failures = 0;
  std::printf("%-8s %-13s %10s %16s  %s\n", "kernel", "scheduler", "events",
              "digest", "status");
  for (const auto& kernel : benchmarks()) {
    for (const auto& kind : kinds) {
      const SelfcheckResult r = selfcheck(kernel, kind, /*seed=*/42, opts);
      std::printf("%-8s %-13s %10llu %016llx  %s\n", r.kernel.c_str(),
                  r.sched.c_str(), static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.digest_a),
                  r.ok() ? "ok" : "FAIL");
      if (!r.deterministic) {
        std::printf("  nondeterministic: digest %016llx vs %016llx; %s\n",
                    static_cast<unsigned long long>(r.digest_a),
                    static_cast<unsigned long long>(r.digest_b),
                    r.divergence.c_str());
      }
      if (r.audit_reports != 0) {
        std::printf("  %zu auditor report(s); first: %s\n", r.audit_reports,
                    r.first_report.c_str());
      }
      if (!r.ok()) ++failures;
    }
  }

  // run_many() must produce identical digests no matter how many pool
  // workers execute the series (seeds and slots are index-based). The
  // metrics digests participate too: with ILAN_METRICS=1 they must be as
  // schedule-independent as the event streams (both are 0 when off).
  {
    Series seq;
    Series par;
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "1");
      seq = run_many(benchmarks().front(), "ilan", 4, 42, opts);
    }
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "4");
      par = run_many(benchmarks().front(), "ilan", 4, 42, opts);
    }
    bool jobs_ok = seq.runs.size() == par.runs.size();
    if (jobs_ok) {
      for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        jobs_ok = jobs_ok && seq.runs[i].event_digest == par.runs[i].event_digest &&
                  seq.runs[i].metrics_digest == par.runs[i].metrics_digest;
      }
    }
    std::printf("run_many jobs=1 vs jobs=4: digests %s\n",
                jobs_ok ? "identical" : "DIFFER");
    if (!jobs_ok) ++failures;
  }

  if (failures == 0) {
    std::printf("selfcheck: all runs deterministic and audit-clean\n");
    return 0;
  }
  std::printf("selfcheck: %d failure(s)\n", failures);
  return 1;
}

bool faults_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--faults") return true;
  }
  return false;
}

// The fault selfcheck flips ILAN_FAULTS / ILAN_BENCH_JOBS / ILAN_WATCHDOG
// per check through obs::ScopedEnv (shared with the rest of the tree), which
// restores the previous state — value or absence — on scope exit.
int selfcheck_faults_main() {
  kernels::KernelOptions opts = env_kernel_options();
  if (std::getenv("ILAN_BENCH_TIMESTEPS") == nullptr) opts.timesteps = 3;
  // The checks below own the watchdog setting; a caller-provided deadline
  // would truncate selfcheck runs and break digest comparisons.
  const obs::ScopedEnv no_watchdog("ILAN_WATCHDOG", "0");

  const std::vector<std::string> sc_kernels = {"cg", "sp"};
  const std::vector<std::string> kinds = {"baseline", "ilan"};
  int failures = 0;
  std::printf("%-9s %-8s %-13s %10s %16s  %s\n", "scenario", "kernel", "scheduler",
              "events", "digest", "status");
  for (const auto& scenario : fault::scenario_names()) {
    const obs::ScopedEnv faults_env("ILAN_FAULTS", scenario);

    // Two-run digest parity per kernel x scheduler under this scenario,
    // with the first divergent event pinned down on mismatch.
    for (const auto& kernel : sc_kernels) {
      for (const auto& kind : kinds) {
        const SelfcheckResult r = selfcheck(kernel, kind, /*seed=*/42, opts);
        std::printf("%-9s %-8s %-13s %10llu %016llx  %s\n", scenario.c_str(),
                    r.kernel.c_str(), r.sched.c_str(),
                    static_cast<unsigned long long>(r.events),
                    static_cast<unsigned long long>(r.digest_a),
                    r.ok() ? "ok" : "FAIL");
        if (!r.deterministic) {
          std::printf("  nondeterministic: digest %016llx vs %016llx; %s\n",
                      static_cast<unsigned long long>(r.digest_a),
                      static_cast<unsigned long long>(r.digest_b),
                      r.divergence.c_str());
        }
        if (r.audit_reports != 0) {
          std::printf("  %zu auditor report(s); first: %s\n", r.audit_reports,
                      r.first_report.c_str());
        }
        if (!r.ok()) ++failures;
      }
    }

    // run_many parity: per-run digests and statuses must be identical no
    // matter how many pool workers executed the series.
    Series seq;
    Series par;
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "1");
      seq = run_many(sc_kernels.front(), "ilan", 4, /*base_seed=*/42, opts);
    }
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "4");
      par = run_many(sc_kernels.front(), "ilan", 4, /*base_seed=*/42, opts);
    }
    bool jobs_ok = seq.runs.size() == par.runs.size();
    std::int64_t applied = 0;
    if (jobs_ok) {
      for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        jobs_ok = jobs_ok && seq.runs[i].event_digest == par.runs[i].event_digest &&
                  seq.runs[i].status == par.runs[i].status;
        applied += seq.runs[i].faults_applied;
      }
    }
    // A scenario that never applies a fault proves nothing — guard against
    // the catalog silently rotting into no-ops.
    const bool applied_ok = scenario == "none" ? applied == 0 : applied > 0;
    std::printf("%-9s run_many jobs=1 vs jobs=4: %s (%lld fault application(s))\n",
                scenario.c_str(), jobs_ok && applied_ok ? "identical" : "FAIL",
                static_cast<long long>(applied));
    if (!jobs_ok || !applied_ok) ++failures;
  }

  // Watchdog: an impossibly tight deadline must come back as a structured
  // kWatchdog record — not a hang, not an uncaught exception.
  {
    const obs::ScopedEnv faults_env("ILAN_FAULTS", "none");
    const obs::ScopedEnv wd_env("ILAN_WATCHDOG", "1e-9");
    const RunResult r = run_once(sc_kernels.front(), "ilan", /*seed=*/42, opts);
    const bool wd_ok = r.status == RunStatus::kWatchdog && !r.error.empty();
    std::printf("watchdog 1e-9s: status=%s attempts=%d %s\n", to_string(r.status),
                r.attempts, wd_ok ? "ok" : "FAIL");
    if (!wd_ok) ++failures;
  }

  if (failures == 0) {
    std::printf("selfcheck --faults: all scenarios deterministic, watchdog structured\n");
    return 0;
  }
  std::printf("selfcheck --faults: %d failure(s)\n", failures);
  return 1;
}

bool dag_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--dag") return true;
  }
  return false;
}

// Task-graph selfcheck: every DAG kernel (kernels::dag_kernel_names) passes
// 2-run digest+metrics parity and race-auditor cleanliness under each
// scheduler kind — including the dep-aware distribution — plus run_many
// jobs=1-vs-4 per-run digest parity. The release-then-wake path
// (kTagDagRelease events) feeds the same streaming digest as everything
// else, so any schedule-dependence in the readiness protocol fails here.
int selfcheck_dag_main() {
  kernels::KernelOptions opts = env_kernel_options();
  if (std::getenv("ILAN_BENCH_TIMESTEPS") == nullptr) opts.timesteps = 2;
  const obs::ScopedEnv no_watchdog("ILAN_WATCHDOG", "0");
  const obs::ScopedEnv no_faults("ILAN_FAULTS", "none");

  const std::vector<std::string> kinds = {"baseline", "work-sharing", "ilan",
                                          "composed:dist=dep-aware"};
  int failures = 0;
  std::printf("%-8s %-24s %10s %16s  %s\n", "kernel", "scheduler", "events",
              "digest", "status");
  for (const auto& kernel : kernels::dag_kernel_names()) {
    for (const auto& kind : kinds) {
      const SelfcheckResult r = selfcheck(kernel, kind, /*seed=*/42, opts);
      std::printf("%-8s %-24s %10llu %016llx  %s\n", r.kernel.c_str(),
                  r.sched.c_str(), static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.digest_a),
                  r.ok() ? "ok" : "FAIL");
      if (!r.deterministic) {
        std::printf("  nondeterministic: digest %016llx vs %016llx; %s\n",
                    static_cast<unsigned long long>(r.digest_a),
                    static_cast<unsigned long long>(r.digest_b),
                    r.divergence.c_str());
      }
      if (r.audit_reports != 0) {
        std::printf("  %zu auditor report(s); first: %s\n", r.audit_reports,
                    r.first_report.c_str());
      }
      if (!r.ok()) ++failures;
    }
  }

  // run_many parity over the DAG path: per-run digests, metrics digests
  // and statuses identical no matter how many pool workers ran the series.
  for (const auto& kernel : kernels::dag_kernel_names()) {
    Series seq;
    Series par;
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "1");
      seq = run_many(kernel, "composed:dist=dep-aware", 4, /*base_seed=*/42, opts);
    }
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "4");
      par = run_many(kernel, "composed:dist=dep-aware", 4, /*base_seed=*/42, opts);
    }
    bool jobs_ok = seq.runs.size() == par.runs.size();
    if (jobs_ok) {
      for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        jobs_ok = jobs_ok && seq.runs[i].event_digest == par.runs[i].event_digest &&
                  seq.runs[i].metrics_digest == par.runs[i].metrics_digest &&
                  seq.runs[i].status == par.runs[i].status;
      }
    }
    std::printf("%-8s run_many jobs=1 vs jobs=4: digests %s\n", kernel.c_str(),
                jobs_ok ? "identical" : "DIFFER");
    if (!jobs_ok) ++failures;
  }

  if (failures == 0) {
    std::printf("selfcheck --dag: all DAG runs deterministic and audit-clean\n");
    return 0;
  }
  std::printf("selfcheck --dag: %d failure(s)\n", failures);
  return 1;
}

// --- serving mode ---------------------------------------------------------

serve::ServeParams serve_params_from_env() {
  serve::ServeParams p;
  p.queue_cap = obs::parse_env_int("ILAN_SERVE_QUEUE_CAP", p.queue_cap, 1, 100000);
  p.max_retries = obs::parse_env_int("ILAN_SERVE_RETRIES", p.max_retries, 0, 1000);
  p.breaker_threshold = obs::parse_env_int("ILAN_SERVE_BREAKER_THRESHOLD",
                                           p.breaker_threshold, 1, 100000);
  p.breaker_cooldown_s = obs::parse_env_double("ILAN_SERVE_BREAKER_COOLDOWN",
                                               p.breaker_cooldown_s, 1e-9, 1e6);
  return p;
}

std::vector<std::string> env_serve_scenarios() {
  const char* v = std::getenv("ILAN_SERVE_SCENARIO");
  if (v == nullptr || v[0] == '\0') return serve::scenario_names();
  std::vector<std::string> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ';' || *p == '\0') {
      if (!item.empty()) out.push_back(item);
      item.clear();
      if (*p == '\0') break;
    } else {
      item += *p;
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("ILAN_SERVE_SCENARIO='" + std::string(v) +
                                "': no scenarios found");
  }
  // Fail fast on a typo'd scenario before any run burns host time.
  for (const auto& name : out) (void)serve::make_scenario(name);
  return out;
}

ServeRun run_serve(const std::string& scenario, const std::string& sched_spec,
                   std::uint64_t seed) {
  const auto host_start = std::chrono::steady_clock::now();
  rt::Machine machine(paper_machine(seed));
  machine.engine().set_digest_enabled(true);
  obs::MetricsRegistry metrics;
  const bool want_metrics = obs::env_flag("ILAN_METRICS");
  // Before the Server: both the machine and the serve layer cache handles.
  if (want_metrics) machine.set_metrics(&metrics);
  // ILAN_FAULTS composes with serving: injected degrade/offline clauses
  // demote NodeHealth, and every tenant's placement mask routes around
  // them exactly like around breaker-quarantined nodes.
  const auto injector = arm_env_faults(machine, seed);
  serve::TrafficSpec spec = serve::make_scenario(scenario);
  if (const int cap = obs::parse_env_int("ILAN_SERVE_REQUESTS", 0, 1, 100000000);
      cap > 0) {
    spec.max_requests = cap;
  }
  serve::Server server(machine, spec, serve_params_from_env(), sched_spec);

  ServeRun out;
  out.report = server.run();
  out.event_digest = machine.engine().event_digest();
  out.events_fired = machine.engine().events_fired();
  if (want_metrics) {
    export_machine_metrics(machine, metrics);
    out.metrics_digest = metrics.digest();
  }
  out.host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  return out;
}

bool serve_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--serve") return true;
  }
  return false;
}

namespace {

// Seed-series parity helper for selfcheck --serve: the run_many seed rule
// (base + 1000*(i+1)) executed on `jobs` pool workers with index-assigned
// slots. Serve runs carry no cross-run state, so the digests must be
// bit-identical no matter how the pool interleaves them.
std::vector<std::pair<std::uint64_t, std::uint64_t>> serve_series(
    const std::string& scenario, const std::string& sched_spec, int runs,
    std::uint64_t base_seed, int jobs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(
      static_cast<std::size_t>(runs));
  auto work = [&](int i) {
    const ServeRun r = run_serve(
        scenario, sched_spec,
        base_seed + 1000ull * (static_cast<std::uint64_t>(i) + 1));
    out[static_cast<std::size_t>(i)] = {r.event_digest, r.metrics_digest};
  };
  if (jobs <= 1) {
    for (int i = 0; i < runs; ++i) work(i);
    return out;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= runs) return;
        work(i);
      }
    });
  }
  for (auto& t : pool) t.join();
  return out;
}

}  // namespace

int selfcheck_serve_main() {
  // Metrics parity should be real, not vacuous: force the registry on so
  // the serve.* instrumentation participates in the digest comparison.
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const std::string sched = "ilan";
  int failures = 0;
  std::printf("%-9s %-6s %8s %8s %7s %10s %16s  %s\n", "scenario", "sched",
              "offered", "ok", "shed%", "events", "digest", "status");
  for (const auto& scenario : env_serve_scenarios()) {
    // 2-run digest + metrics parity.
    const ServeRun a = run_serve(scenario, sched, /*seed=*/42);
    const ServeRun b = run_serve(scenario, sched, /*seed=*/42);
    const bool det = a.event_digest == b.event_digest &&
                     a.events_fired == b.events_fired &&
                     a.metrics_digest == b.metrics_digest;

    // Seed-series jobs=1 vs jobs=4 parity through the pool.
    const auto seq = serve_series(scenario, sched, 4, /*base_seed=*/42, /*jobs=*/1);
    const auto par = serve_series(scenario, sched, 4, /*base_seed=*/42, /*jobs=*/4);
    const bool jobs_ok = seq == par;

    // The robustness machinery must actually engage where the scenario
    // says it should: overload sheds AND trips breakers; every scenario
    // still completes some requests in time.
    const auto& rep = a.report;
    const std::int64_t shed = rep.shed_queue + rep.shed_slo + rep.shed_breaker;
    const std::int64_t trips = rep.tenant_trips + rep.node_trips;
    bool engaged = rep.ok > 0;
    if (scenario == "overload") engaged = engaged && shed > 0 && trips > 0;

    const bool ok = det && jobs_ok && engaged;
    std::printf("%-9s %-6s %8lld %8lld %6.1f%% %10llu %016llx  %s\n",
                scenario.c_str(), sched.c_str(), static_cast<long long>(rep.offered),
                static_cast<long long>(rep.ok), 100.0 * rep.shed_rate,
                static_cast<unsigned long long>(a.events_fired),
                static_cast<unsigned long long>(a.event_digest),
                ok ? "ok" : "FAIL");
    if (!det) {
      std::printf("  nondeterministic: digest %016llx vs %016llx, metrics %016llx "
                  "vs %016llx\n",
                  static_cast<unsigned long long>(a.event_digest),
                  static_cast<unsigned long long>(b.event_digest),
                  static_cast<unsigned long long>(a.metrics_digest),
                  static_cast<unsigned long long>(b.metrics_digest));
    }
    if (!jobs_ok) std::printf("  jobs=1 vs jobs=4 series digests DIFFER\n");
    if (!engaged) {
      std::printf("  robustness machinery idle: ok=%lld shed=%lld breaker_trips=%lld\n",
                  static_cast<long long>(rep.ok), static_cast<long long>(shed),
                  static_cast<long long>(trips));
    }
    if (!ok) ++failures;
  }
  if (failures == 0) {
    std::printf("selfcheck --serve: all scenarios deterministic, shedding and "
                "breakers engage under overload\n");
    return 0;
  }
  std::printf("selfcheck --serve: %d failure(s)\n", failures);
  return 1;
}

// --- topology mode ---------------------------------------------------------

bool topo_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i] == nullptr ? "" : argv[i]) == "--topo") return true;
  }
  return false;
}

// Cross-topology selfcheck: every registered topology must be as
// deterministic as the default one — 2-run digest + metrics parity with the
// race auditor riding run A, and run_many jobs=1-vs-4 per-run digest parity
// — plus the compatibility anchor that keeps the spec-driven axis honest:
// the default machine (unset ILAN_TOPO) is spec-identical to the legacy
// hard-coded zen4 preset and digest-identical to an explicit ILAN_TOPO=zen4
// run.
int selfcheck_topo_main() {
  kernels::KernelOptions opts = env_kernel_options();
  if (std::getenv("ILAN_BENCH_TIMESTEPS") == nullptr) opts.timesteps = 2;
  const obs::ScopedEnv no_watchdog("ILAN_WATCHDOG", "0");
  const obs::ScopedEnv no_faults("ILAN_FAULTS", "none");
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");

  int failures = 0;
  std::printf("%-8s %-8s %-13s %10s %16s  %s\n", "topology", "kernel", "scheduler",
              "events", "digest", "status");
  for (const auto& name : topo::TopologyRegistry::instance().names()) {
    const obs::ScopedEnv topo_env("ILAN_TOPO", name);
    for (const auto& kind : {std::string("ilan"), std::string("baseline")}) {
      const SelfcheckResult r = selfcheck("cg", kind, /*seed=*/42, opts);
      std::printf("%-8s %-8s %-13s %10llu %016llx  %s\n", name.c_str(),
                  r.kernel.c_str(), r.sched.c_str(),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.digest_a),
                  r.ok() ? "ok" : "FAIL");
      if (!r.deterministic) {
        std::printf("  nondeterministic: digest %016llx vs %016llx; %s\n",
                    static_cast<unsigned long long>(r.digest_a),
                    static_cast<unsigned long long>(r.digest_b),
                    r.divergence.c_str());
      }
      if (r.audit_reports != 0) {
        std::printf("  %zu auditor report(s); first: %s\n", r.audit_reports,
                    r.first_report.c_str());
      }
      if (!r.ok()) ++failures;
    }

    // run_many parity: per-run digests, metrics digests and statuses
    // identical no matter how many pool workers ran the series.
    Series seq;
    Series par;
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "1");
      seq = run_many("cg", "ilan", 4, /*base_seed=*/42, opts);
    }
    {
      const obs::ScopedEnv jobs_env("ILAN_BENCH_JOBS", "4");
      par = run_many("cg", "ilan", 4, /*base_seed=*/42, opts);
    }
    bool jobs_ok = seq.runs.size() == par.runs.size();
    if (jobs_ok) {
      for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        jobs_ok = jobs_ok && seq.runs[i].event_digest == par.runs[i].event_digest &&
                  seq.runs[i].metrics_digest == par.runs[i].metrics_digest &&
                  seq.runs[i].status == par.runs[i].status;
      }
    }
    std::printf("%-8s run_many jobs=1 vs jobs=4: digests %s\n", name.c_str(),
                jobs_ok ? "identical" : "DIFFER");
    if (!jobs_ok) ++failures;
  }

  // Compatibility anchor. Spec level: the default machine is the legacy
  // preset, field for field (serialize() covers every MachineSpec field).
  // Digest level: unset ILAN_TOPO and explicit "zen4" produce bit-identical
  // simulations.
  {
    std::uint64_t digest_default = 0;
    std::uint64_t digest_zen4 = 0;
    bool spec_ok = false;
    {
      const obs::ScopedEnv topo_env("ILAN_TOPO");  // unset -> default
      spec_ok = topo::serialize(topo::machine_spec_from_env()) ==
                topo::serialize(topo::presets::zen4_epyc9354_2s());
      digest_default = run_once("cg", "ilan", /*seed=*/42, opts).event_digest;
    }
    {
      const obs::ScopedEnv topo_env("ILAN_TOPO", "zen4");
      digest_zen4 = run_once("cg", "ilan", /*seed=*/42, opts).event_digest;
    }
    const bool ok = spec_ok && digest_default == digest_zen4;
    std::printf("default == legacy zen4 preset: spec %s, digest %016llx vs %016llx %s\n",
                spec_ok ? "identical" : "DIFFERS",
                static_cast<unsigned long long>(digest_default),
                static_cast<unsigned long long>(digest_zen4),
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }

  if (failures == 0) {
    std::printf("selfcheck --topo: all topologies deterministic, default machine "
                "anchored to the legacy preset\n");
    return 0;
  }
  std::printf("selfcheck --topo: %d failure(s)\n", failures);
  return 1;
}

}  // namespace ilan::bench
