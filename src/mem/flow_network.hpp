// Max-min fair bandwidth allocation (progressive water-filling).
//
// Flows share capacity constraints (memory controllers, per-core load/store
// links, cross-socket links). The solver raises all unfrozen flow rates
// uniformly until some constraint (or a flow's own cap) saturates, freezes
// the affected flows, and repeats — the textbook max-min fair allocation.
// This is the fluid model SimGrid-style network simulators use, applied to
// a NUMA memory system.
//
// Designed as a PERSISTENT, incrementally-updated problem: callers append
// flows as work arrives (add_flow) and tombstone them as it drains
// (remove_flow) instead of rebuilding from scratch. A tombstoned flow keeps
// its index — so caller-side flow handles stay valid — but is excluded
// from every solve: it contributes no active weight, receives no rate and
// is skipped by the freeze scan. Because exclusion just skips terms of
// ordered sums and min-reductions, a solve over the persistent network is
// bit-identical to a from-scratch solve over only the live flows in the
// same order. Constraints are never removed; one with no live member flows
// has active weight exactly 0.0 and is inert (it can never own a round or
// freeze a flow), so its capacity may go stale without affecting any rate.
// Callers compact (clear + re-add live flows) when tombstones accumulate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ilan::mem {

class FlowNetwork {
 public:
  using ConstraintIdx = std::int32_t;
  using FlowIdx = std::int32_t;

  // Resets to an empty problem, retaining capacity.
  void clear();

  // Adds a capacity constraint (capacity in arbitrary rate units, > 0).
  ConstraintIdx add_constraint(double capacity);

  // Adds a flow with its own rate cap (> 0), an occupancy weight (>= such
  // that a flow consumes `weight` units of constraint capacity per unit of
  // rate — remote flows occupy controllers/links longer per delivered byte),
  // and the constraints it loads. A flow may appear in each constraint at
  // most once.
  FlowIdx add_flow(double cap, double weight,
                   std::span<const ConstraintIdx> constraints);

  // Tombstones a live flow: it keeps its index but is excluded from all
  // subsequent solves (rate forced to 0).
  void remove_flow(FlowIdx f);
  [[nodiscard]] bool dead(FlowIdx f) const {
    return dead_.at(static_cast<std::size_t>(f)) != 0;
  }

  // In-place updates for incremental re-solving: callers that keep the
  // constraint/membership structure of a previous problem can refresh
  // capacities and flow caps without rebuilding, then call solve() again.
  // Setting a value equal to the current one is a no-op.
  void set_capacity(ConstraintIdx c, double capacity);
  void set_flow_cap(FlowIdx f, double cap);
  // True when set_capacity/set_flow_cap changed something since the last
  // solve().
  [[nodiscard]] bool dirty() const { return dirty_; }

  [[nodiscard]] std::int32_t num_flows() const { return static_cast<std::int32_t>(flow_cap_.size()); }
  [[nodiscard]] std::int32_t num_constraints() const {
    return static_cast<std::int32_t>(cap_.size());
  }
  // Flows not (yet) tombstoned; num_flows() - live_flows() are dead.
  [[nodiscard]] std::size_t live_flows() const { return live_; }
  [[nodiscard]] std::size_t dead_flows() const { return flow_cap_.size() - live_; }

  // Solves max-min fairness from scratch; results via rate().
  void solve();

  [[nodiscard]] double rate(FlowIdx f) const { return rate_.at(static_cast<std::size_t>(f)); }
  [[nodiscard]] std::span<const double> rates() const { return rate_; }

 private:
  void freeze(FlowIdx f, double level);

  // Constraint capacities.
  std::vector<double> cap_;
  // Flow caps, weights and rates.
  std::vector<double> flow_cap_;
  std::vector<double> flow_weight_;
  std::vector<double> rate_;
  // CSR-style membership: flow -> constraints.
  std::vector<std::int32_t> memb_begin_;
  std::vector<ConstraintIdx> memb_;
  // Reverse index: constraint -> its live member flows, ascending.
  std::vector<std::vector<FlowIdx>> members_;
  // Tombstones (1 = dead) and the live count.
  std::vector<std::uint8_t> dead_;
  std::size_t live_ = 0;
  bool dirty_ = false;

  // Solve scratch (kept across solves). The active constraints — those
  // whose residual can still matter — are the first active_ slots of a
  // dense table: residual, active weight, unfrozen member count and
  // constraint index per slot; slot_ maps a constraint to its slot.
  std::size_t active_ = 0;
  std::vector<double> res_;
  std::vector<double> aw_;
  std::vector<std::int32_t> unfrozen_members_;
  std::vector<ConstraintIdx> slot_constraint_;
  std::vector<std::int32_t> slot_;
  // Unfrozen flows, compact and in increasing flow index, with their caps
  // alongside.
  std::vector<FlowIdx> unfrozen_;
  std::vector<double> unfrozen_cap_;
  std::vector<std::uint8_t> state_;  // per flow, see kUnfrozen/kMarked/kFrozen
};

}  // namespace ilan::mem
