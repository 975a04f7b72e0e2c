#include "mem/flow_network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ilan::mem {

namespace {
constexpr double kEps = 1e-12;
// Per-flow solve state.
constexpr std::uint8_t kUnfrozen = 0;
constexpr std::uint8_t kMarked = 1;  // in a saturated constraint, freezes this round
constexpr std::uint8_t kFrozen = 2;
}  // namespace

void FlowNetwork::clear() {
  cap_.clear();
  flow_cap_.clear();
  flow_weight_.clear();
  rate_.clear();
  memb_begin_.clear();
  memb_.clear();
  members_.clear();
  dead_.clear();
  live_ = 0;
  dirty_ = false;
}

FlowNetwork::ConstraintIdx FlowNetwork::add_constraint(double capacity) {
  if (capacity <= 0.0) throw std::invalid_argument("FlowNetwork: non-positive capacity");
  cap_.push_back(capacity);
  members_.emplace_back();
  return static_cast<ConstraintIdx>(cap_.size() - 1);
}

FlowNetwork::FlowIdx FlowNetwork::add_flow(double cap, double weight,
                                           std::span<const ConstraintIdx> constraints) {
  if (cap <= 0.0) throw std::invalid_argument("FlowNetwork: non-positive flow cap");
  if (weight <= 0.0) throw std::invalid_argument("FlowNetwork: non-positive weight");
  for (const auto c : constraints) {
    if (c < 0 || static_cast<std::size_t>(c) >= cap_.size()) {
      throw std::out_of_range("FlowNetwork: bad constraint index");
    }
  }
  const auto f = static_cast<FlowIdx>(flow_cap_.size());
  if (memb_begin_.empty()) memb_begin_.push_back(0);
  for (const auto c : constraints) {
    memb_.push_back(c);
    members_[static_cast<std::size_t>(c)].push_back(f);  // f is the largest index yet
  }
  memb_begin_.push_back(static_cast<std::int32_t>(memb_.size()));
  flow_cap_.push_back(cap);
  flow_weight_.push_back(weight);
  rate_.push_back(0.0);
  dead_.push_back(0);
  ++live_;
  return f;
}

void FlowNetwork::remove_flow(FlowIdx f) {
  if (f < 0 || static_cast<std::size_t>(f) >= flow_cap_.size()) {
    throw std::out_of_range("FlowNetwork: bad flow index");
  }
  const auto fi = static_cast<std::size_t>(f);
  if (dead_[fi] != 0) throw std::logic_error("FlowNetwork: flow already removed");
  dead_[fi] = 1;
  --live_;
  rate_[fi] = 0.0;
  for (std::int32_t m = memb_begin_[fi]; m < memb_begin_[fi + 1]; ++m) {
    auto& list = members_[static_cast<std::size_t>(memb_[static_cast<std::size_t>(m)])];
    list.erase(std::find(list.begin(), list.end(), f));
  }
}

void FlowNetwork::set_capacity(ConstraintIdx c, double capacity) {
  if (c < 0 || static_cast<std::size_t>(c) >= cap_.size()) {
    throw std::out_of_range("FlowNetwork: bad constraint index");
  }
  if (capacity <= 0.0) throw std::invalid_argument("FlowNetwork: non-positive capacity");
  auto& slot = cap_[static_cast<std::size_t>(c)];
  if (slot == capacity) return;
  slot = capacity;
  dirty_ = true;
}

void FlowNetwork::set_flow_cap(FlowIdx f, double cap) {
  if (f < 0 || static_cast<std::size_t>(f) >= flow_cap_.size()) {
    throw std::out_of_range("FlowNetwork: bad flow index");
  }
  if (dead_[static_cast<std::size_t>(f)] != 0) {
    throw std::invalid_argument("FlowNetwork: set_flow_cap on removed flow");
  }
  if (cap <= 0.0) throw std::invalid_argument("FlowNetwork: non-positive flow cap");
  auto& slot = flow_cap_[static_cast<std::size_t>(f)];
  if (slot == cap) return;
  slot = cap;
  dirty_ = true;
}

// The textbook loop, which tests/mem_flow_test.cpp keeps as its bitwise
// oracle, runs per round: a ratio scan residual/active_weight over every
// constraint with active_weight > eps and a cap - rate scan over every
// unfrozen flow (the round's increment is the minimum of both, floored at
// 0); rate += delta on every unfrozen flow and residual -= delta *
// active_weight on every constraint (only when delta > 0); then a freeze
// scan in increasing flow index that freezes a flow at its cap (rate >= cap
// - eps) or in a saturated constraint (residual <= eps), subtracting its
// weight from each member constraint's active weight as it goes; and if
// nothing froze, a force-freeze of the lowest unfrozen flow. This loop
// performs exactly the same floating-point operations on every value that
// reaches a rate, in the same order, with less work:
//
//  * One shared level. Every unfrozen flow starts at 0.0 and receives the
//    same sequence of `+= delta`, so all unfrozen rates equal one scalar.
//    A flow's rate is that level when it freezes. And since rounding is
//    monotone, min over flows of fl(cap - level) is fl(min cap - level):
//    the flow half of the increment is one subtraction, with the minimum
//    cap taken while the previous round compacted its survivors.
//    The increment itself is a minimum of values, which no scan order
//    changes (a zero or negative minimum applies nothing, so the sign of a
//    zero minimum never matters either).
//  * Skipping inert constraints. A constraint only matters through its
//    residual, which is read by the ratio scan (only while its active
//    weight is > eps) and by the freeze test of its unfrozen members. Its
//    active weight only changes when a member freezes. So once it has no
//    unfrozen member and an active weight <= eps, nothing ever reads its
//    residual again in this solve, and it is swapped out of the dense
//    active table; a constraint with no live member never enters it. One whose members are
//    all frozen but whose active weight kept a rounding residue > eps
//    stays, exactly as the ratio scan would keep seeing it.
//  * The reverse index. The freeze test reads residuals only, never
//    active weights, so the round's freeze set is fixed once the residuals
//    are updated: flows at their cap plus the unfrozen members of every
//    saturated constraint, which the constraint->flow index marks
//    directly. Applying the freezes in increasing flow index keeps each
//    constraint's active-weight subtractions in their order; the force-
//    freeze picks the same lowest unfrozen flow.
//  * Active weights start as the sum of the live member weights in
//    increasing flow order, which is the order the per-constraint member
//    lists hold.
void FlowNetwork::solve() {
  dirty_ = false;
  const std::size_t nf = flow_cap_.size();
  const std::size_t nc = cap_.size();

  state_.resize(nf);
  unfrozen_.resize(live_);
  unfrozen_cap_.resize(live_);
  std::size_t nu = 0;
  double min_cap = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < nf; ++f) {
    if (dead_[f] != 0) continue;
    const double cap = flow_cap_[f];
    state_[f] = kUnfrozen;
    unfrozen_[nu] = static_cast<FlowIdx>(f);
    unfrozen_cap_[nu] = cap;
    if (cap < min_cap) min_cap = cap;
    ++nu;
  }

  // slot_ is only ever read for constraints with a live member, which all
  // get a slot here.
  res_.resize(nc);
  aw_.resize(nc);
  unfrozen_members_.resize(nc);
  slot_constraint_.resize(nc);
  slot_.resize(nc);
  active_ = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    const auto& list = members_[c];
    if (list.empty()) continue;
    double w = 0.0;
    for (const FlowIdx f : list) w += flow_weight_[static_cast<std::size_t>(f)];
    slot_[c] = static_cast<std::int32_t>(active_);
    res_[active_] = cap_[c];
    aw_[active_] = w;
    unfrozen_members_[active_] = static_cast<std::int32_t>(list.size());
    slot_constraint_[active_] = static_cast<ConstraintIdx>(c);
    ++active_;
  }

  double level = 0.0;
  while (nu > 0) {
    double delta = min_cap - level;
    for (std::size_t s = 0; s < active_; ++s) {
      if (aw_[s] > kEps) {
        const double v = res_[s] / aw_[s];
        if (v < delta) delta = v;
      }
    }
    delta = std::max(delta, 0.0);

    if (delta > 0.0) {
      level += delta;
      for (std::size_t s = 0; s < active_; ++s) res_[s] -= delta * aw_[s];
    }
    for (std::size_t s = 0; s < active_; ++s) {
      if (unfrozen_members_[s] == 0 || !(res_[s] <= kEps)) continue;
      for (const FlowIdx f : members_[static_cast<std::size_t>(slot_constraint_[s])]) {
        auto& st = state_[static_cast<std::size_t>(f)];
        if (st == kUnfrozen) st = kMarked;
      }
    }

    // Freeze in increasing flow index, compacting the survivors and taking
    // the next round's minimum cap on the way.
    std::size_t keep = 0;
    min_cap = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nu; ++i) {
      const FlowIdx f = unfrozen_[i];
      if (level >= unfrozen_cap_[i] - kEps || state_[static_cast<std::size_t>(f)] == kMarked) {
        freeze(f, level);
        continue;
      }
      const double cap = unfrozen_cap_[i];
      unfrozen_[keep] = f;
      unfrozen_cap_[keep] = cap;
      if (cap < min_cap) min_cap = cap;
      ++keep;
    }
    if (keep == nu) {
      // Numerical corner: force-freeze the first unfrozen flow.
      freeze(unfrozen_[0], level);
      --keep;
      min_cap = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < keep; ++i) {
        unfrozen_[i] = unfrozen_[i + 1];
        unfrozen_cap_[i] = unfrozen_cap_[i + 1];
        if (unfrozen_cap_[i] < min_cap) min_cap = unfrozen_cap_[i];
      }
    }
    nu = keep;
  }
}

void FlowNetwork::freeze(FlowIdx f, double level) {
  const auto fi = static_cast<std::size_t>(f);
  state_[fi] = kFrozen;
  rate_[fi] = level;
  const double w = flow_weight_[fi];
  for (std::int32_t m = memb_begin_[fi]; m < memb_begin_[fi + 1]; ++m) {
    const auto c = static_cast<std::size_t>(memb_[static_cast<std::size_t>(m)]);
    const auto s = static_cast<std::size_t>(slot_[c]);
    aw_[s] -= w;
    if (--unfrozen_members_[s] > 0 || aw_[s] > kEps) continue;
    // Inert from now on: swap the last active slot into its place.
    const std::size_t last = --active_;
    if (s != last) {
      res_[s] = res_[last];
      aw_[s] = aw_[last];
      unfrozen_members_[s] = unfrozen_members_[last];
      slot_constraint_[s] = slot_constraint_[last];
      slot_[static_cast<std::size_t>(slot_constraint_[s])] = static_cast<std::int32_t>(s);
    }
  }
}

}  // namespace ilan::mem
