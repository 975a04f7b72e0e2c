#include "mem/memory_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/env.hpp"
#include "sim/event_tags.hpp"

namespace ilan::mem {

namespace {
constexpr double kGB = 1e9;
// Completion tolerance: a record is "drained" below these residuals.
constexpr double kTinyBytes = 0.5;
constexpr double kTinyCycles = 0.5;
}  // namespace

MemorySystem::MemorySystem(sim::Engine& engine, const topo::Topology& topo,
                           const MemParams& params, RegionTable& regions,
                           sim::NoiseModel* noise)
    : engine_(engine),
      topo_(topo),
      params_(params),
      regions_(regions),
      noise_(noise),
      cache_(topo, params.cache) {
  if (regions_.num_nodes() != topo_.num_nodes()) {
    throw std::invalid_argument("MemorySystem: region table node count mismatch");
  }
  stream_bytes_.resize(static_cast<std::size_t>(topo_.num_nodes()));
  gather_bytes_.resize(static_cast<std::size_t>(topo_.num_nodes()));
  extra_streams_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0.0);
  bw_scale_.assign(static_cast<std::size_t>(topo_.num_nodes()), 1.0);
  node_src_bytes_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0.0);
  node_peak_streams_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0.0);
  // Distance is static, so the remote-efficiency pow() is a pure function
  // of the (src, home) node pair — precompute it off the resolve hot path.
  const auto nn = static_cast<std::size_t>(topo_.num_nodes());
  eff_table_.resize(nn * nn);
  for (std::size_t s = 0; s < nn; ++s) {
    for (std::size_t h = 0; h < nn; ++h) {
      const double dist = topo_.distance(topo::NodeId{static_cast<std::int32_t>(s)},
                                         topo::NodeId{static_cast<std::int32_t>(h)});
      eff_table_[s * nn + h] = std::pow(10.0 / dist, params_.remote_eff_exponent);
    }
  }
  far_present_ = topo_.has_far_tier();
  far_eff_.assign(nn, 1.0);
  if (far_present_) {
    far_stream_bytes_.resize(nn);
    for (std::size_t i = 0; i < nn; ++i) {
      const auto& node = topo_.node(topo::NodeId{static_cast<std::int32_t>(i)});
      if (node.far.present()) {
        far_eff_[i] =
            std::pow(node.mem_latency_ns / node.far.latency_ns, params_.remote_eff_exponent);
      }
    }
  }
  controller_c_.assign(nn, -1);
  far_c_.assign(nn, -1);
  core_c_.assign(static_cast<std::size_t>(topo_.num_cores()), -1);
  link_c_.assign(static_cast<std::size_t>(topo_.num_sockets()) *
                     static_cast<std::size_t>(topo_.num_sockets()),
                 -1);
  controller_live_.assign(nn, 0);
  solver_check_ = obs::env_flag("ILAN_SOLVER_CHECK");
}

void MemorySystem::set_extra_streams(topo::NodeId node, double streams) {
  if (streams < 0.0) {
    throw std::invalid_argument("MemorySystem: extra streams must be >= 0");
  }
  if (extra_streams_.at(node.index()) != streams) resolve_dirty_ = true;
  extra_streams_.at(node.index()) = streams;
}

double MemorySystem::extra_streams(topo::NodeId node) const {
  return extra_streams_.at(node.index());
}

void MemorySystem::set_bw_scale(topo::NodeId node, double scale) {
  if (scale <= 0.0) throw std::invalid_argument("MemorySystem: bw scale must be > 0");
  if (bw_scale_.at(node.index()) != scale) resolve_dirty_ = true;
  bw_scale_.at(node.index()) = scale;
}

double MemorySystem::bw_scale(topo::NodeId node) const {
  return bw_scale_.at(node.index());
}

void MemorySystem::request_resolve() {
  // Conservative: the caller may have changed inputs this system cannot see
  // (per-core frequency factors live in the noise model and are re-read
  // inside resolve()).
  resolve_dirty_ = true;
  schedule_resolve();
}

double MemorySystem::core_hz(topo::CoreId core) const {
  const double base = topo_.core(core).base_freq_ghz * 1e9;
  const double factor = noise_ ? noise_->core_freq_factor(core.value()) : 1.0;
  return base * factor;
}

ExecId MemorySystem::begin(topo::CoreId core, double cpu_cycles,
                           std::span<const AccessDescriptor> accesses,
                           std::function<void()> on_complete) {
  if (cpu_cycles < 0.0) throw std::invalid_argument("MemorySystem::begin: negative cycles");
  if (!on_complete) throw std::invalid_argument("MemorySystem::begin: null callback");

  const ExecId id = next_id_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  // A reused slot keeps its vectors' capacity.
  ExecRecord& rec = pool_[slot];
  rec.id = id;
  rec.core = core;
  rec.cpu_remaining = cpu_cycles;
  rec.cpu_hz = core_hz(core);
  rec.flows.clear();
  rec.gather_frac.clear();
  rec.on_complete = std::move(on_complete);
  rec.last_update = engine_.now();
  rec.eta = kNotDue;
  build_flows(rec, accesses);
  // ExecIds are monotone, so appending keeps active_ in ExecId order — and
  // the persistent network's live flows in exactly the order a from-scratch
  // build over active_ would emit them.
  active_.push_back(slot);
  append_exec_flows(rec);
  resolve_dirty_ = true;
  schedule_resolve();
  return id;
}

void MemorySystem::build_flows(ExecRecord& rec,
                               std::span<const AccessDescriptor> accesses) {
  const auto n = static_cast<std::size_t>(topo_.num_nodes());
  std::fill(stream_bytes_.begin(), stream_bytes_.end(), 0.0);
  std::fill(gather_bytes_.begin(), gather_bytes_.end(), 0.0);

  const topo::NodeId home = topo_.node_of(rec.core);
  const topo::CcdId ccd = topo_.ccd_of(rec.core);

  for (const auto& a : accesses) {
    if (a.len == 0) continue;
    DataRegion& region = regions_.get(a.region);
    switch (a.kind) {
      case AccessKind::kRead:
      case AccessKind::kWrite: {
        region.touch(a.offset, a.len, home);
        const double hit = cache_.access(ccd, a.region, a.offset, a.len);
        if (hit >= 1.0) break;
        // Distribute the full range, then scale by the miss fraction.
        const double scale = 1.0 - hit;
        if (scale <= 0.0) break;
        bytes_scratch_.assign(n, 0.0);
        region.bytes_by_node(a.offset, a.len, bytes_scratch_);
        for (std::size_t i = 0; i < n; ++i) stream_bytes_[i] += bytes_scratch_[i] * scale;
        break;
      }
      case AccessKind::kGather: {
        // Irregular access over the whole region: caching is ineffective
        // unless the entire region is L3-resident, which the bypass logic
        // in CacheModel already captures for small regions.
        double hit = 0.0;
        if (region.bytes() <= params_.cache.block_bytes * 64) {
          hit = cache_.access(ccd, a.region, 0, region.bytes());
        }
        const double scale = 1.0 - hit;
        if (scale <= 0.0) break;
        region.spread_by_histogram(static_cast<double>(a.len) * scale, gather_bytes_);
        break;
      }
    }
  }

  // Far-tier split: on machines with a CXL tier, the fraction of a node's
  // placed bytes that overflows its near DRAM capacity is served from the
  // far device — those bytes become separate flows that also cross the
  // device constraint. Tierless machines skip the block entirely (no new
  // float ops on the default path).
  if (far_present_) {
    std::fill(far_stream_bytes_.begin(), far_stream_bytes_.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (stream_bytes_[i] <= 0.0) continue;
      const double ff = far_fraction(i);
      if (ff <= 0.0) continue;
      far_stream_bytes_[i] = stream_bytes_[i] * ff;
      stream_bytes_[i] -= far_stream_bytes_[i];
    }
  }

  // Merge sub-threshold flows into the largest same-kind flow so no bytes
  // are lost but the solver sees few flows.
  const auto emit = [&](std::vector<double>& by_node, bool gather, bool far) {
    std::size_t largest = n;
    double largest_v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (by_node[i] > largest_v) {
        largest_v = by_node[i];
        largest = i;
      }
    }
    if (largest == n) return;  // all zero
    double merged = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != largest && by_node[i] > 0.0 && by_node[i] < params_.min_flow_bytes) {
        merged += by_node[i];
        by_node[i] = 0.0;
      }
    }
    by_node[largest] += merged;
    for (std::size_t i = 0; i < n; ++i) {
      if (by_node[i] <= 0.0) continue;
      rec.flows.push_back(
          FlowState{static_cast<std::int32_t>(i), gather, by_node[i], 0.0, far});
      node_src_bytes_[i] += by_node[i];
      const topo::NodeId src{static_cast<std::int32_t>(i)};
      if (src == home) {
        traffic_.local_bytes += by_node[i];
      } else {
        traffic_.remote_bytes += by_node[i];
        if (topo_.socket_of(src) != topo_.socket_of(home)) {
          traffic_.cross_socket_bytes += by_node[i];
        }
      }
    }
  };
  emit(stream_bytes_, /*gather=*/false, /*far=*/false);
  if (far_present_) emit(far_stream_bytes_, /*gather=*/false, /*far=*/true);

  // Gathers aggregate into ONE latency-bound flow per task: a dependent
  // load chain has one outstanding miss stream no matter how many
  // controllers its targets live on. Keep the per-node byte fractions for
  // loaded-latency averaging and traffic accounting.
  double gather_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) gather_total += gather_bytes_[i];
  if (gather_total > 0.0) {
    rec.gather_frac.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (gather_bytes_[i] <= 0.0) continue;
      rec.gather_frac[i] = gather_bytes_[i] / gather_total;
      node_src_bytes_[i] += gather_bytes_[i];
      const topo::NodeId src{static_cast<std::int32_t>(i)};
      if (src == home) {
        traffic_.local_bytes += gather_bytes_[i];
      } else {
        traffic_.remote_bytes += gather_bytes_[i];
        if (topo_.socket_of(src) != topo_.socket_of(home)) {
          traffic_.cross_socket_bytes += gather_bytes_[i];
        }
      }
    }
    rec.flows.push_back(FlowState{-1, true, gather_total, 0.0});
  }

  // Enforce the per-execution flow cap: repeatedly fold the two smallest
  // flows together. Byte totals (and thus times) are preserved, and merging
  // small-into-small keeps the byte distribution balanced — folding into
  // the largest flow would fabricate a single-controller hotspot that
  // dominates the task's completion time.
  const auto max_flows = static_cast<std::size_t>(std::max(1, params_.max_flows_per_exec));
  while (rec.flows.size() > max_flows) {
    std::size_t s1 = 0;  // smallest
    std::size_t s2 = 1;  // second smallest
    if (rec.flows[s2].remaining < rec.flows[s1].remaining) std::swap(s1, s2);
    for (std::size_t i = 2; i < rec.flows.size(); ++i) {
      if (rec.flows[i].remaining < rec.flows[s1].remaining) {
        s2 = s1;
        s1 = i;
      } else if (rec.flows[i].remaining < rec.flows[s2].remaining) {
        s2 = i;
      }
    }
    rec.flows[s2].remaining += rec.flows[s1].remaining;
    rec.flows.erase(rec.flows.begin() + static_cast<std::ptrdiff_t>(s1));
  }
}

void MemorySystem::schedule_resolve() {
  if (resolve_pending_) return;
  resolve_pending_ = true;
  engine_.schedule_after(
      0,
      [this] {
        resolve_pending_ = false;
        resolve();
      },
      sim::kTagMemResolve);
}

void MemorySystem::advance(ExecRecord& rec, sim::SimTime now) {
  const double dt = sim::to_seconds(now - rec.last_update);
  if (dt > 0.0) {
    rec.cpu_remaining = std::max(0.0, rec.cpu_remaining - dt * rec.cpu_hz);
    for (auto& f : rec.flows) {
      f.remaining = std::max(0.0, f.remaining - dt * f.rate);
    }
  }
  rec.last_update = now;
}

sim::SimTime MemorySystem::eta(const ExecRecord& rec, sim::SimTime now) const {
  double secs = 0.0;
  if (rec.cpu_remaining > kTinyCycles) {
    secs = std::max(secs, rec.cpu_remaining / rec.cpu_hz);
  }
  for (const auto& f : rec.flows) {
    if (f.remaining > kTinyBytes) {
      // rate > 0 is guaranteed by solve(): every flow has a positive cap.
      secs = std::max(secs, f.remaining / f.rate);
    }
  }
  return now + std::max<sim::SimTime>(1, sim::from_seconds(secs));
}

void MemorySystem::arm_completion() {
  if (due_at_next_ == 0) {
    if (completion_event_ != sim::kInvalidEvent) {
      engine_.cancel(completion_event_);
      completion_event_ = sim::kInvalidEvent;
    }
    return;
  }
  const sim::SimTime at = pool_[next_slot_].eta;
  if (completion_event_ != sim::kInvalidEvent) {
    completion_event_ = engine_.reschedule(completion_event_, at);
  } else {
    completion_event_ =
        engine_.schedule_at(at, [this] { fire_completion(); }, sim::kTagMemComplete);
  }
}

void MemorySystem::fire_completion() {
  completion_event_ = sim::kInvalidEvent;  // fired: the handle is stale
  const ExecId id = pool_[next_slot_].id;
  if (--due_at_next_ > 0) {
    // The next execution due at this instant is the next one in ExecId
    // order with this eta (earlier ones already fired). Re-arm tied, so it
    // pops before anything this completion schedules — where its own
    // event would have popped next.
    const sim::SimTime now = engine_.now();
    const auto next = std::find_if(find_active(id) + 1, active_.end(),
                                   [&](std::uint32_t slot) { return pool_[slot].eta == now; });
    if (next == active_.end()) {
      throw std::logic_error("MemorySystem: completion tie without a due execution");
    }
    next_slot_ = *next;
    completion_event_ =
        engine_.schedule_tied(now, [this] { fire_completion(); }, sim::kTagMemComplete);
  }
  // Otherwise the event stays disarmed: complete() schedules a resolve at
  // this instant, which pops before any later event and re-arms it.
  complete(id);
}

double MemorySystem::controller_cap(
    std::size_t node, const std::vector<double>& streams_on_controller) const {
  // Congestion derating: row-buffer/queue interference past the knee, with
  // a floor on how much of peak a controller can lose (see MemParams).
  const auto& n = topo_.node(topo::NodeId{static_cast<std::int32_t>(node)});
  const double derate = std::min(
      params_.congestion_derate_max,
      1.0 + params_.congestion_beta *
                std::max(0.0, streams_on_controller[node] - params_.congestion_knee));
  return n.mem_bw_gbps * bw_scale_[node] * kGB / derate;
}

double MemorySystem::far_fraction(std::size_t node) const {
  const auto& info = topo_.node(topo::NodeId{static_cast<std::int32_t>(node)});
  if (!info.far.present()) return 0.0;
  // Placement-driven spill: near DRAM holds the first mem_bytes of whatever
  // first-touch/interleave placed on this node; the overflow lives on the
  // far device. Deterministic because placement is.
  double placed = 0.0;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const DataRegion& reg = regions_.get(static_cast<RegionId>(r));
    placed += static_cast<double>(reg.pages_per_node()[node]) *
              static_cast<double>(reg.page_bytes());
  }
  if (placed <= info.mem_bytes) return 0.0;
  return (placed - info.mem_bytes) / placed;
}

void MemorySystem::append_exec_flows(ExecRecord& rec) {
  const auto& core = topo_.core(rec.core);
  const topo::NodeId home = core.node;
  const auto ns = static_cast<std::size_t>(topo_.num_sockets());
  for (auto& f : rec.flows) {
    if (f.remaining <= kTinyBytes) {
      f.net_idx = -1;  // born (or already) drained: never enters the network
      continue;
    }
    if (core_c_[rec.core.index()] < 0) {
      core_c_[rec.core.index()] = net_.add_constraint(core.core_bw_gbps * kGB);
    }
    if (f.gather) {
      // The cap is a placeholder: every resolve refreshes it from the live
      // stream pressure before any solve reads it.
      const FlowNetwork::ConstraintIdx constraints[1] = {core_c_[rec.core.index()]};
      f.net_idx = net_.add_flow(core.core_bw_gbps * kGB * params_.gather_bw_factor,
                                1.0, constraints);
      net_structural_ = true;
      continue;
    }
    const auto src_i = static_cast<std::size_t>(f.src_node);
    const topo::NodeId src{f.src_node};
    if (controller_c_[src_i] < 0) {
      // Placeholder cap, same contract as the gather cap above.
      controller_c_[src_i] = net_.add_constraint(topo_.node(src).mem_bw_gbps * kGB);
    }
    ++controller_live_[src_i];
    // Far-tier flows compose the distance efficiency with the device's
    // latency handicap and additionally cross the per-node device
    // constraint; eff stays the plain distance factor everywhere else
    // (far_eff_ is 1.0 only on tierless nodes, never multiplied here).
    const double eff = f.far ? eff_to(src, home) * far_eff_[src_i] : eff_to(src, home);
    const double cap = core.core_bw_gbps * kGB * eff;
    // Remote flows occupy controller/link capacity longer per delivered
    // byte (latency-limited MLP): weight = 1/eff.
    const double weight = 1.0 / eff;

    FlowNetwork::ConstraintIdx constraints[4];
    int nc = 0;
    if (f.far) {
      if (far_c_[src_i] < 0) {
        far_c_[src_i] = net_.add_constraint(topo_.node(src).far.bw_gbps * kGB);
      }
      constraints[nc++] = far_c_[src_i];
    }
    constraints[nc++] = controller_c_[src_i];
    constraints[nc++] = core_c_[rec.core.index()];
    const auto s_src = topo_.socket_of(src);
    const auto s_dst = core.socket;
    if (s_src != s_dst) {
      const std::size_t li = s_src.index() * ns + s_dst.index();
      if (link_c_[li] < 0) {
        link_c_[li] = net_.add_constraint(topo_.socket(s_src).xlink_bw_gbps * kGB);
      }
      constraints[nc++] = link_c_[li];
    }
    f.net_idx = net_.add_flow(cap, weight,
                              std::span<const FlowNetwork::ConstraintIdx>(
                                  constraints, static_cast<std::size_t>(nc)));
    net_structural_ = true;
  }
}

void MemorySystem::tombstone_flow(FlowState& f) {
  net_.remove_flow(f.net_idx);
  if (!f.gather) --controller_live_[static_cast<std::size_t>(f.src_node)];
  f.net_idx = -1;
  f.rate = 0.0;
  net_structural_ = true;
}

void MemorySystem::compact_network() {
  net_.clear();
  std::fill(controller_c_.begin(), controller_c_.end(), -1);
  std::fill(far_c_.begin(), far_c_.end(), -1);
  std::fill(core_c_.begin(), core_c_.end(), -1);
  std::fill(link_c_.begin(), link_c_.end(), -1);
  std::fill(controller_live_.begin(), controller_live_.end(), 0);
  for (const std::uint32_t slot : active_) append_exec_flows(pool_[slot]);
}

void MemorySystem::resolve() {
  const sim::SimTime now = engine_.now();
  const auto nn = static_cast<std::size_t>(topo_.num_nodes());
  ++solver_stats_.resolves;

  // 0. Same-instant coalescing: a second resolve event at the timestamp of
  // the last one with nothing dirty (no execution started or finished, no
  // fault knob moved, no explicit request) would recompute every value it
  // computed — zero time has passed, so no flow drained and no structural
  // bit changed. Only the completion event's reschedule has an observable
  // effect (it consumes a schedule sequence number); replay just that.
  if (!resolve_dirty_ && now == last_resolve_time_) {
    ++solver_stats_.coalesced;
    arm_completion();
    return;
  }
  resolve_dirty_ = false;
  last_resolve_time_ = now;

  // Three walks over the execution table, in ExecId order. Each record
  // sees the same floating-point operations, and the engine the same
  // reschedule/schedule/cancel sequence, as one walk per step would give:
  // every step reads and writes only its own record, except the shared
  // per-controller stream sums (accumulated in the same record order) and
  // the network solve, which sits between walks 2 and 3.
  //
  // Walk 1. Advance each execution to `now`, then re-read its core's
  // effective frequency: consumed cycles were burned at the old rate,
  // remaining cycles drain at the current one (a throttle fault takes
  // effect mid-execution this way). Tombstone flows that crossed the drain
  // threshold since the last resolve — exactly the "skip drained flows" a
  // from-scratch build performs (new executions' flows were appended by
  // begin()). Then add the execution's stream load per controller for the
  // congestion derating: one task is one request stream, and a task whose
  // bytes split across controllers loads each with its byte fraction (a
  // sequential reader visits one controller at a time — counting whole
  // flows would overstate interference).
  std::vector<double>& streams_on_controller = streams_scratch_;
  streams_on_controller.assign(nn, 0.0);
  for (const std::uint32_t slot : active_) {
    ExecRecord& rec = pool_[slot];
    advance(rec, now);
    rec.cpu_hz = core_hz(rec.core);
    double total = 0.0;
    for (auto& f : rec.flows) {
      if (f.remaining > kTinyBytes) {
        total += f.remaining;
      } else if (f.net_idx >= 0) {
        tombstone_flow(f);
      }
    }
    if (total <= 0.0) continue;
    for (const auto& f : rec.flows) {
      if (f.remaining <= kTinyBytes) continue;
      const double frac = f.remaining / total;
      if (f.gather) {
        // The aggregate gather stream pressures each source controller by
        // its byte fraction.
        for (std::size_t i = 0; i < nn; ++i) {
          streams_on_controller[i] += frac * rec.gather_frac[i];
        }
      } else {
        streams_on_controller[static_cast<std::size_t>(f.src_node)] += frac;
      }
    }
  }
  // Fault-injected co-runner pressure joins the stream count on controllers
  // the workload is actually using (a constraint only exists where task
  // flows source from; pressuring an untouched controller affects nobody).
  // Adding 0.0 on the no-fault path leaves every count bit-identical.
  for (std::size_t i = 0; i < nn; ++i) {
    if (streams_on_controller[i] > 0.0) streams_on_controller[i] += extra_streams_[i];
    if (streams_on_controller[i] > node_peak_streams_[i]) {
      node_peak_streams_[i] = streams_on_controller[i];
    }
  }

  // Walk 2. Bring the persistent network up to date. Compact first if
  // tombstones dominate, then refresh every derived capacity: controller
  // caps on nodes with live stream members (a controller without any is
  // inert — active weight exactly 0 — so its stale cap can influence no
  // rate), and the per-flow caps of live gather flows. set_capacity/
  // set_flow_cap discard equal values, so net_.dirty() afterwards means
  // "some input actually moved".
  const bool rebuilt = net_needs_rebuild_ ||
                       net_.dead_flows() > net_.live_flows() + kCompactSlack;
  if (rebuilt) {
    if (!net_needs_rebuild_) {
      ++solver_stats_.compactions;
      solver_stats_.flows_reclaimed += net_.dead_flows();
    }
    net_needs_rebuild_ = false;
    compact_network();
  }
  for (std::size_t i = 0; i < nn; ++i) {
    if (controller_c_[i] >= 0 && controller_live_[i] > 0) {
      net_.set_capacity(controller_c_[i], controller_cap(i, streams_on_controller));
    }
  }
  for (const std::uint32_t slot : active_) {
    const ExecRecord& rec = pool_[slot];
    if (rec.gather_frac.empty()) continue;  // no gather flow
    for (const auto& f : rec.flows) {
      if (f.gather && f.net_idx >= 0) {
        net_.set_flow_cap(f.net_idx, gather_cap_for(rec, streams_on_controller));
      }
    }
  }

  // Re-level: a structural edit or a moved capacity re-runs the
  // water-filling on the persistent structure; an unchanged problem is
  // skipped outright — the solver is deterministic, so the current rates
  // are still exact.
  if (rebuilt) {
    ++solver_stats_.full_builds;
    net_.solve();
  } else if (net_structural_ || net_.dirty()) {
    ++solver_stats_.cap_updates;
    net_.solve();
  } else {
    ++solver_stats_.skipped;
  }
  net_structural_ = false;
  if (solver_check_) check_against_fresh(streams_on_controller);

  // Walk 3. Read the rates back, collect the executions that already
  // finished, and give every other one its eta, tracking the earliest
  // (eta, ExecId) — the first record in active_ order wins ties. Then one
  // engine call points the completion event at it (see the ordering
  // argument in memory_system.hpp). It must precede the completions below,
  // whose callbacks may schedule events of their own.
  const std::span<const double> rates = net_.rates();
  std::vector<ExecId> done;
  due_at_next_ = 0;
  for (const std::uint32_t slot : active_) {
    ExecRecord& rec = pool_[slot];
    bool finished = rec.cpu_remaining <= kTinyCycles;
    for (auto& f : rec.flows) {
      if (f.net_idx >= 0) f.rate = rates[static_cast<std::size_t>(f.net_idx)];
      if (f.remaining > kTinyBytes) finished = false;
    }
    if (finished) {
      done.push_back(rec.id);
      continue;
    }
    rec.eta = eta(rec, now);
    if (due_at_next_ == 0 || rec.eta < pool_[next_slot_].eta) {
      next_slot_ = slot;
      due_at_next_ = 1;
    } else if (rec.eta == pool_[next_slot_].eta) {
      ++due_at_next_;
    }
  }
  arm_completion();
  for (const ExecId id : done) complete(id);
}

double MemorySystem::gather_cap_for(
    const ExecRecord& rec, const std::vector<double>& streams_on_controller) const {
  // Latency-bound dependent-load chain: rate = MLP / loaded latency.
  // Loaded latency averages (byte-weighted) over the source controllers'
  // queue depths and distances. The chain's bandwidth is small, so it loads
  // no shared capacity constraint beyond the core.
  const auto nn = static_cast<std::size_t>(topo_.num_nodes());
  const auto& core = topo_.core(rec.core);
  const topo::NodeId home = core.node;
  double lat_factor = 0.0;
  double eff_avg = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    const double frac = rec.gather_frac[i];
    if (frac <= 0.0) continue;
    const topo::NodeId src{static_cast<std::int32_t>(i)};
    eff_avg += frac * eff_to(src, home);
    lat_factor +=
        frac * (1.0 + params_.gather_lat_beta *
                          std::max(0.0, streams_on_controller[i] -
                                            params_.gather_lat_knee));
  }
  return core.core_bw_gbps * kGB * params_.gather_bw_factor * eff_avg /
         std::max(1.0, lat_factor);
}

void MemorySystem::check_against_fresh(
    const std::vector<double>& streams_on_controller) {
  // The non-incremental reference: build a fresh network over only the live
  // flows, in active_ (ExecId) order, exactly as a from-scratch resolve
  // would, and demand bit-identical rates from the persistent network.
  const auto nn = static_cast<std::size_t>(topo_.num_nodes());
  const auto ns = static_cast<std::size_t>(topo_.num_sockets());
  FlowNetwork& net = check_net_;
  net.clear();

  std::vector<FlowNetwork::ConstraintIdx> controller_c(nn, -1);
  for (std::size_t i = 0; i < nn; ++i) {
    if (streams_on_controller[i] <= 0.0) continue;
    controller_c[i] = net.add_constraint(controller_cap(i, streams_on_controller));
  }
  std::vector<FlowNetwork::ConstraintIdx> far_c(nn, -1);
  std::vector<FlowNetwork::ConstraintIdx> link_c(ns * ns, -1);
  std::vector<FlowNetwork::ConstraintIdx> core_c(
      static_cast<std::size_t>(topo_.num_cores()), -1);

  for (const std::uint32_t slot : active_) {
    const ExecRecord& rec = pool_[slot];
    const auto& core = topo_.core(rec.core);
    const topo::NodeId home = core.node;
    for (const auto& f : rec.flows) {
      if (f.net_idx < 0) continue;
      if (core_c[rec.core.index()] < 0) {
        core_c[rec.core.index()] = net.add_constraint(core.core_bw_gbps * kGB);
      }
      if (f.gather) {
        const double cap = gather_cap_for(rec, streams_on_controller);
        const FlowNetwork::ConstraintIdx constraints[1] = {core_c[rec.core.index()]};
        net.add_flow(cap, 1.0, constraints);
        continue;
      }
      const topo::NodeId src{f.src_node};
      const auto src_i = static_cast<std::size_t>(f.src_node);
      const double eff = f.far ? eff_to(src, home) * far_eff_[src_i] : eff_to(src, home);
      const double weight = 1.0 / eff;
      FlowNetwork::ConstraintIdx constraints[4];
      int nc = 0;
      if (f.far) {
        if (far_c[src_i] < 0) {
          far_c[src_i] = net.add_constraint(topo_.node(src).far.bw_gbps * kGB);
        }
        constraints[nc++] = far_c[src_i];
      }
      constraints[nc++] = controller_c[src_i];
      constraints[nc++] = core_c[rec.core.index()];
      const auto s_src = topo_.socket_of(src);
      const auto s_dst = core.socket;
      if (s_src != s_dst) {
        const std::size_t li = s_src.index() * ns + s_dst.index();
        if (link_c[li] < 0) {
          link_c[li] = net.add_constraint(topo_.socket(s_src).xlink_bw_gbps * kGB);
        }
        constraints[nc++] = link_c[li];
      }
      net.add_flow(core.core_bw_gbps * kGB * eff, weight,
                   std::span<const FlowNetwork::ConstraintIdx>(
                       constraints, static_cast<std::size_t>(nc)));
    }
  }
  net.solve();

  FlowNetwork::FlowIdx k = 0;
  for (const std::uint32_t slot : active_) {
    for (const auto& f : pool_[slot].flows) {
      if (f.net_idx < 0) continue;
      if (net.rate(k) != net_.rate(f.net_idx)) {
        throw std::logic_error(
            "MemorySystem: incremental resolve diverged from fresh build "
            "(ILAN_SOLVER_CHECK)");
      }
      ++k;
    }
  }
}

std::vector<std::uint32_t>::iterator MemorySystem::find_active(ExecId id) {
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [this](std::uint32_t slot, ExecId key) { return pool_[slot].id < key; });
  if (it == active_.end() || pool_[*it].id != id) {
    throw std::logic_error("MemorySystem: no running execution with this id");
  }
  return it;
}

void MemorySystem::complete(ExecId id) {
  const auto it = find_active(id);
  ExecRecord& rec = pool_[*it];
  advance(rec, engine_.now());
  for (auto& f : rec.flows) {
    if (f.net_idx >= 0) tombstone_flow(f);
  }
  auto cb = std::move(rec.on_complete);
  free_slots_.push_back(*it);
  active_.erase(it);
  resolve_dirty_ = true;
  schedule_resolve();
  cb();
}

std::vector<MemorySystem::ExecSnapshot> MemorySystem::snapshot() const {
  std::vector<ExecSnapshot> out;
  out.reserve(active_.size());
  for (const std::uint32_t slot : active_) {
    const ExecRecord& rec = pool_[slot];
    ExecSnapshot s;
    s.id = rec.id;
    s.core = rec.core;
    s.cpu_remaining = rec.cpu_remaining;
    for (const auto& f : rec.flows) {
      s.flows.push_back({f.src_node, f.gather, f.remaining, f.rate, f.far});
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MemorySystem::reset_run() {
  if (!active_.empty()) throw std::logic_error("MemorySystem::reset_run with active executions");
  cache_.invalidate_all();
  traffic_ = TrafficStats{};
  solver_stats_ = SolverStats{};
  std::fill(node_src_bytes_.begin(), node_src_bytes_.end(), 0.0);
  std::fill(node_peak_streams_.begin(), node_peak_streams_.end(), 0.0);
  // Discard the persistent network: the next resolve rebuilds from scratch.
  net_.clear();
  std::fill(controller_c_.begin(), controller_c_.end(), -1);
  std::fill(far_c_.begin(), far_c_.end(), -1);
  std::fill(core_c_.begin(), core_c_.end(), -1);
  std::fill(link_c_.begin(), link_c_.end(), -1);
  std::fill(controller_live_.begin(), controller_live_.end(), 0);
  net_structural_ = false;
  net_needs_rebuild_ = true;
  resolve_dirty_ = true;
}

}  // namespace ilan::mem
