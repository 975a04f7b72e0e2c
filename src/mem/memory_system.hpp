// The machine's memory model: executes tasks in simulated time.
//
// A task execution is (cpu cycles, set of memory accesses). Compute and
// memory overlap (roofline-style): the execution finishes when both the
// cycle budget and every memory flow have drained. Flow rates come from a
// max-min fair allocation over
//   * per-NUMA-node memory controllers, derated past a concurrency knee
//     (row-buffer/queue interference — what moldability exploits),
//   * per-core load/store bandwidth, derated for remote sources by a
//     SLIT-distance efficiency factor,
//   * cross-socket link capacity shared by all inter-socket traffic.
// Rates are re-solved whenever an execution starts or finishes.
//
// Completions: each MemorySystem keeps at most ONE pending `mem-complete`
// engine event, armed at the earliest (eta, ExecId) among the running
// executions, and each re-solve makes one engine call for it (reschedule,
// schedule, or cancel when nothing runs). This commits exactly the event
// stream that one event per execution, all rescheduled on every re-solve,
// would commit:
//   * those per-execution reschedule/schedule calls ran back to back and
//     cancel consumes no sequence number, so after every re-solve their
//     events held a contiguous block of sequence numbers in ExecId order
//     with no other event numbered inside it. One event keyed like the
//     block's first member pops at the same place relative to every other
//     event.
//   * when it fires and another execution is due at the same instant, it
//     re-arms through Engine::schedule_tied, keeping the firing event's
//     sequence number: it pops before anything the firing callback
//     scheduled, which is where the block's next member would have popped.
//   * otherwise it stays disarmed: complete() schedules a re-solve at this
//     instant, which pops before any later event and re-arms it.
// Every committed event keeps its time, fire index and tag.
//
// Access kinds:
//   kRead/kWrite  — streaming over [offset, offset+len); first-touch places
//                   pages; the CCD L3 model can satisfy part of the traffic.
//   kGather       — `len` bytes sampled across the whole region (irregular
//                   access); spread by the region's placement histogram and
//                   served at a reduced per-flow efficiency.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/cache_model.hpp"
#include "mem/data_region.hpp"
#include "mem/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "topo/topology.hpp"

namespace ilan::mem {

enum class AccessKind { kRead, kWrite, kGather };

struct AccessDescriptor {
  RegionId region = -1;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;  // bytes moved (traffic; may exceed the footprint
                          // when imbalance amplifies re-reads of hot lines)
  AccessKind kind = AccessKind::kRead;
  // Distinct bytes addressed: [offset, offset+footprint). 0 means "same as
  // len". The memory system charges traffic by len; the race auditor
  // (src/analysis/) intersects footprints.
  std::uint64_t footprint = 0;
};

struct MemParams {
  // Remote-flow efficiency: (10 / distance)^exponent. Also sets the
  // occupancy weight (1/eff) a remote flow imposes on the constraints it
  // crosses — remote streams hold controller/link resources longer per
  // delivered byte (latency-limited MLP).
  double remote_eff_exponent = 0.22;
  // Controller derating: cap / min(derate_max, 1 + beta * max(0, flows - knee)).
  // Models row-buffer/queue interference between concurrent request streams;
  // the cap keeps the penalty physical (a controller never loses more than
  // ~60% of peak to stream interleaving).
  double congestion_beta = 0.50;
  double congestion_knee = 3.0;
  double congestion_derate_max = 3.5;
  // Irregular (gather) accesses reach this fraction of streaming bandwidth
  // when the machine is quiet...
  double gather_bw_factor = 0.35;
  // ...and degrade with the source controller's queue depth: the achievable
  // rate of a dependent-load chain is MLP/loaded-latency, and loaded
  // latency grows with the number of streams queued at the controller:
  //   rate_factor = 1 + gather_lat_beta * max(0, streams - gather_lat_knee).
  // This is the interference channel the paper's Section 5.2 describes for
  // CG and SP, and the one moldability relieves.
  double gather_lat_beta = 0.75;
  double gather_lat_knee = 3.0;
  // Flows below this byte count are merged into the largest flow.
  double min_flow_bytes = 65536.0;
  // Hard cap on flows per execution (smallest flows merge into the largest;
  // keeps the max-min solve cheap for gather-heavy tasks).
  int max_flows_per_exec = 9;
  CacheParams cache;
};

using ExecId = std::uint64_t;

struct TrafficStats {
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  double cross_socket_bytes = 0.0;
  [[nodiscard]] double total() const { return local_bytes + remote_bytes; }
};

// Counters for the incremental resolve pipeline (host-side perf
// diagnostics). resolves = full_builds + cap_updates + skipped + coalesced.
struct SolverStats {
  std::uint64_t resolves = 0;     // resolve() invocations
  std::uint64_t full_builds = 0;  // from-scratch network rebuild + solve
  // In-place incremental resolves: flows appended/tombstoned on the
  // persistent network and/or capacities refreshed, then re-solved without
  // rebuilding the constraint structure.
  std::uint64_t cap_updates = 0;
  std::uint64_t skipped = 0;    // nothing changed since the last solve
  std::uint64_t coalesced = 0;  // same-instant repeat with nothing dirty
  // Tombstone reclamation: full_builds triggered because dead flows came to
  // dominate the persistent network (subset of full_builds), and how many
  // tombstoned flow slots those rebuilds discarded.
  std::uint64_t compactions = 0;
  std::uint64_t flows_reclaimed = 0;
  // Fraction of resolves that avoided a from-scratch rebuild.
  [[nodiscard]] double hit_rate() const {
    return resolves > 0 ? static_cast<double>(cap_updates + skipped + coalesced) /
                              static_cast<double>(resolves)
                        : 0.0;
  }
};

class MemorySystem {
 public:
  MemorySystem(sim::Engine& engine, const topo::Topology& topo, const MemParams& params,
               RegionTable& regions, sim::NoiseModel* noise);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  // Starts a task execution on `core`. `on_complete` fires exactly once, at
  // the simulated completion time. Returns an id (diagnostics only).
  ExecId begin(topo::CoreId core, double cpu_cycles,
               std::span<const AccessDescriptor> accesses,
               std::function<void()> on_complete);

  [[nodiscard]] std::size_t active_executions() const { return active_.size(); }
  [[nodiscard]] const TrafficStats& traffic() const { return traffic_; }
  [[nodiscard]] const SolverStats& solver_stats() const { return solver_stats_; }
  // Per-NUMA-node observability: bytes sourced from each node's controller
  // over the run (the per-node split of traffic()), and the peak concurrent
  // stream pressure each controller saw (co-runner faults included) — the
  // quantity the congestion derating keys on. Indexed by node; exported
  // into the metrics registry by the bench harness at run end.
  [[nodiscard]] std::span<const double> node_src_bytes() const { return node_src_bytes_; }
  [[nodiscard]] std::span<const double> node_peak_streams() const {
    return node_peak_streams_;
  }
  [[nodiscard]] CacheModel& cache() { return cache_; }
  [[nodiscard]] RegionTable& regions() { return regions_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  // Effective frequency of a core (base * per-run noise factor), in Hz.
  [[nodiscard]] double core_hz(topo::CoreId core) const;

  // --- fault-injection knobs (src/fault/) --------------------------------
  // Co-runner bandwidth pressure: `streams` extra request streams queued at
  // node `node`'s controller. They enter the congestion derating (and the
  // gather loaded-latency channel) exactly like task-generated streams, but
  // carry no bytes of their own.
  void set_extra_streams(topo::NodeId node, double streams);
  [[nodiscard]] double extra_streams(topo::NodeId node) const;
  // Transient controller degradation: node `node`'s controller capacity is
  // multiplied by `scale` (1.0 = healthy) until changed back.
  void set_bw_scale(topo::NodeId node, double scale);
  [[nodiscard]] double bw_scale(topo::NodeId node) const;
  // Forces a rate re-solve at the current simulated time (coalesced with any
  // already-pending resolve). Fault transitions call this so rate and
  // frequency changes take effect at the transition instant, not at the
  // next task boundary.
  void request_resolve();

  // Clears caches and traffic stats between runs. Requires no active
  // executions.
  void reset_run();

  // Snapshot of one active execution's progress (diagnostics/visualization).
  struct ExecSnapshot {
    ExecId id;
    topo::CoreId core;
    double cpu_remaining;
    struct FlowSnapshot {
      std::int32_t src_node;
      bool gather;
      double remaining_bytes;
      double rate_bytes_per_s;
      // Served from the node's CXL far-memory tier (always false on
      // tierless machines).
      bool far = false;
    };
    std::vector<FlowSnapshot> flows;
  };
  [[nodiscard]] std::vector<ExecSnapshot> snapshot() const;

 private:
  struct FlowState {
    std::int32_t src_node;  // -1 for the aggregate gather flow
    bool gather;
    double remaining;  // bytes
    double rate;       // bytes/s
    // Far-tier stream: crosses the node's CXL device constraint in addition
    // to the controller. Never true for gather flows or on tierless
    // machines.
    bool far = false;
    // This flow's slot in the persistent network; -1 once drained
    // (tombstoned) or when the flow was born below the drain threshold.
    FlowNetwork::FlowIdx net_idx = -1;
  };
  static constexpr sim::SimTime kNotDue = INT64_MAX;
  struct ExecRecord {
    ExecId id;
    topo::CoreId core;
    double cpu_remaining;  // cycles
    double cpu_hz;
    std::vector<FlowState> flows;
    // Byte fractions per source node of the aggregate gather flow (empty if
    // the task has no gather component).
    std::vector<double> gather_frac;
    std::function<void()> on_complete;
    sim::SimTime last_update = 0;
    // Completion time computed by the last resolve; kNotDue for an
    // execution begun since (it gets one at the next resolve).
    sim::SimTime eta = kNotDue;
  };

  void build_flows(ExecRecord& rec, std::span<const AccessDescriptor> accesses);
  void schedule_resolve();
  void resolve();
  // Appends rec's live flows to the persistent network (constraints created
  // on demand through the index maps), recording each flow's net_idx.
  void append_exec_flows(ExecRecord& rec);
  // Tombstones one flow in the persistent network (drained or completing).
  void tombstone_flow(FlowState& f);
  // From-scratch rebuild of the persistent network from the live flows of
  // active_ (ExecId order) — reclaims tombstones and unused constraints.
  void compact_network();
  // ILAN_SOLVER_CHECK=1: rebuilds a scratch network from scratch (the
  // non-incremental path) and throws if any rate differs bit-for-bit from
  // the persistent network's.
  void check_against_fresh(const std::vector<double>& streams_on_controller);
  // Points the completion event at pool_[next_slot_].eta — the one engine
  // call per resolve (cancels it when nothing is due).
  void arm_completion();
  // The completion event's callback: completes the earliest execution and,
  // if another is due at this instant, re-arms tied for it.
  void fire_completion();
  [[nodiscard]] std::vector<std::uint32_t>::iterator find_active(ExecId id);
  [[nodiscard]] double gather_cap_for(const ExecRecord& rec,
                                      const std::vector<double>& streams_on_controller) const;
  [[nodiscard]] double eff_to(topo::NodeId src, topo::NodeId home) const {
    return eff_table_[static_cast<std::size_t>(src.index()) *
                          static_cast<std::size_t>(topo_.num_nodes()) +
                      static_cast<std::size_t>(home.index())];
  }
  [[nodiscard]] double controller_cap(std::size_t node,
                                      const std::vector<double>& streams_on_controller) const;
  // Fraction of node `node`'s currently placed bytes that overflow its near
  // DRAM capacity into the far tier (0 on tierless nodes). Placement-driven:
  // first-touch grows it as pages land.
  [[nodiscard]] double far_fraction(std::size_t node) const;
  void advance(ExecRecord& rec, sim::SimTime now);
  [[nodiscard]] sim::SimTime eta(const ExecRecord& rec, sim::SimTime now) const;
  void complete(ExecId id);

  sim::Engine& engine_;
  const topo::Topology& topo_;
  MemParams params_;
  RegionTable& regions_;
  sim::NoiseModel* noise_;
  CacheModel cache_;

  // The execution table: active_ holds the pool_ slots of the running
  // executions in ExecId order (ids are monotone, so begin() appends), and
  // every walk visits executions in that deterministic order. A completion
  // erases one slot number and frees the slot for reuse, so no record ever
  // moves while it runs.
  std::vector<std::uint32_t> active_;
  std::vector<ExecRecord> pool_;
  std::vector<std::uint32_t> free_slots_;
  ExecId next_id_ = 1;
  // The single completion event and its target: the running execution
  // with the earliest (eta, ExecId) is pool_[next_slot_], and due_at_next_
  // running executions (it included) share its eta. kInvalidEvent while
  // nothing is due.
  sim::EventId completion_event_ = sim::kInvalidEvent;
  std::uint32_t next_slot_ = 0;
  std::uint32_t due_at_next_ = 0;
  bool resolve_pending_ = false;
  // Same-instant coalescing: set by anything that can change the max-min
  // problem (begin/complete, fault knobs, request_resolve), cleared by a
  // resolve. A resolve firing at the timestamp of the previous one with
  // nothing dirty replays only the completion event's reschedule — the
  // rest of the pipeline would recompute identical values.
  bool resolve_dirty_ = true;
  sim::SimTime last_resolve_time_ = 0;
  TrafficStats traffic_;
  std::vector<double> node_src_bytes_;     // per node, cumulative
  std::vector<double> node_peak_streams_;  // per node, high-water mark

  // Fault-injection state (all-1.0/0.0 when no fault is active; the resolve
  // math then reproduces the unperturbed values bit-for-bit).
  std::vector<double> extra_streams_;  // per node
  std::vector<double> bw_scale_;       // per node

  // Scratch buffers reused across resolves.
  std::vector<double> stream_bytes_;
  std::vector<double> far_stream_bytes_;  // far-tier split of stream_bytes_
  std::vector<double> gather_bytes_;
  std::vector<double> streams_scratch_;
  std::vector<double> bytes_scratch_;  // build_flows per-access distribution

  // Precomputed (10 / distance)^remote_eff_exponent per (src, home) node
  // pair — the same pow() the network build and gather_cap_for used to
  // evaluate per flow per resolve. Row-major: src * num_nodes + home.
  std::vector<double> eff_table_;
  // Per-node far-tier efficiency factor (near_lat / far_lat)^exponent,
  // multiplied into the distance efficiency of far flows. 1.0 on tierless
  // nodes (never read there: far flows only exist where the tier does).
  std::vector<double> far_eff_;
  bool far_present_ = false;  // topo.has_far_tier(), cached

  // The persistent incremental network. Profiling killed the alternative —
  // an LRU cache of immutable networks keyed by a structural signature:
  // on sp, 1510 resolves produced 1490 DISTINCT whole-state signatures
  // (infinite-cache hit ceiling 1.3%), because 64 cores × a handful of
  // per-core flow layouts is a combinatorial state space that essentially
  // never recurs. What DOES hold in steady state is that the median resolve
  // changes exactly ONE execution's flows — so instead of keying whole
  // states, ONE network is updated structurally in place: begin() appends
  // the execution's flows (ExecIds are monotone, so append order equals the
  // ExecId-ordered fresh-build order), drains and completions tombstone
  // them, and each resolve refreshes only derived capacities and re-levels.
  // Constraints are created once per controller/core/socket-pair through
  // the index maps below and never removed; one with no live member flows
  // has active weight exactly 0.0 and is inert, so its stale capacity can
  // never influence a rate (capacities are only refreshed for controllers
  // with live stream members). When tombstones outnumber live flows the
  // network is compacted (a counted full rebuild). Rates are bit-identical
  // to a per-resolve fresh build — see flow_network.hpp for the argument —
  // which ILAN_SOLVER_CHECK=1 verifies at runtime against a from-scratch
  // build every resolve.
  FlowNetwork net_;
  FlowNetwork check_net_;  // ILAN_SOLVER_CHECK scratch, rebuilt per check
  std::vector<FlowNetwork::ConstraintIdx> controller_c_;  // per node, -1 = none
  std::vector<FlowNetwork::ConstraintIdx> core_c_;        // per core, -1 = none
  std::vector<FlowNetwork::ConstraintIdx> link_c_;  // per (src,dst) socket, -1
  // Per-node CXL far-tier device constraint, -1 = none yet. Created lazily
  // like the others, so it NEVER exists on tierless machines — the
  // persistent network is bit-identical to the pre-tier code there.
  std::vector<FlowNetwork::ConstraintIdx> far_c_;
  std::vector<std::int32_t> controller_live_;  // live stream members per node
  // Set by append/tombstone: the next resolve must re-level even if no
  // capacity moved. Cleared by the solve decision.
  bool net_structural_ = false;
  // Set by reset_run() and construction: the next resolve rebuilds from
  // scratch (counted as a full_build, not a compaction).
  bool net_needs_rebuild_ = true;
  // Compact when dead flows exceed live flows by this much — bounds the
  // per-solve O(num_flows) sweep while keeping rebuilds rare enough to
  // amortize to noise.
  static constexpr std::size_t kCompactSlack = 64;

  SolverStats solver_stats_;
  bool solver_check_ = false;  // ILAN_SOLVER_CHECK=1: cross-check every resolve
};

}  // namespace ilan::mem
