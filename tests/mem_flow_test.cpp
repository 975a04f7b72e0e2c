// FlowNetwork (weighted max-min fairness) — unit and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <limits>
#include <numeric>
#include <vector>

#include "mem/flow_network.hpp"
#include "sim/rng.hpp"

namespace {

using ilan::mem::FlowNetwork;

TEST(FlowNetwork, SingleFlowGetsItsCap) {
  FlowNetwork net;
  const auto c = net.add_constraint(100.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(30.0, 1.0, cs);
  net.solve();
  EXPECT_DOUBLE_EQ(net.rate(0), 30.0);
}

TEST(FlowNetwork, SingleFlowLimitedByConstraint) {
  FlowNetwork net;
  const auto c = net.add_constraint(20.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(30.0, 1.0, cs);
  net.solve();
  EXPECT_DOUBLE_EQ(net.rate(0), 20.0);
}

TEST(FlowNetwork, EqualFlowsShareEqually) {
  FlowNetwork net;
  const auto c = net.add_constraint(90.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  for (int i = 0; i < 3; ++i) net.add_flow(100.0, 1.0, cs);
  net.solve();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(net.rate(i), 30.0, 1e-9);
}

TEST(FlowNetwork, CappedFlowReleasesResidualToOthers) {
  FlowNetwork net;
  const auto c = net.add_constraint(90.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(10.0, 1.0, cs);   // capped below fair share
  net.add_flow(100.0, 1.0, cs);  // takes the released residual
  net.solve();
  EXPECT_NEAR(net.rate(0), 10.0, 1e-9);
  EXPECT_NEAR(net.rate(1), 80.0, 1e-9);
}

TEST(FlowNetwork, WeightConsumesMoreCapacityPerRate) {
  FlowNetwork net;
  const auto c = net.add_constraint(90.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(1000.0, 1.0, cs);
  net.add_flow(1000.0, 2.0, cs);  // remote-like: 2x occupancy
  net.solve();
  // Max-min on rates: both get the same rate r with r + 2r = 90.
  EXPECT_NEAR(net.rate(0), 30.0, 1e-9);
  EXPECT_NEAR(net.rate(1), 30.0, 1e-9);
}

TEST(FlowNetwork, MultiConstraintBottleneck) {
  FlowNetwork net;
  const auto wide = net.add_constraint(1000.0);
  const auto narrow = net.add_constraint(10.0);
  const FlowNetwork::ConstraintIdx both[] = {wide, narrow};
  const FlowNetwork::ConstraintIdx only_wide[] = {wide};
  net.add_flow(500.0, 1.0, both);
  net.add_flow(500.0, 1.0, only_wide);
  net.solve();
  EXPECT_NEAR(net.rate(0), 10.0, 1e-9);   // pinned by narrow
  EXPECT_NEAR(net.rate(1), 500.0, 1e-9);  // its cap; wide has room
}

TEST(FlowNetwork, FlowWithNoConstraintsGetsCap) {
  FlowNetwork net;
  net.add_flow(17.0, 1.0, {});
  net.solve();
  EXPECT_DOUBLE_EQ(net.rate(0), 17.0);
}

TEST(FlowNetwork, ClearAllowsReuse) {
  FlowNetwork net;
  const auto c = net.add_constraint(10.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(100.0, 1.0, cs);
  net.solve();
  net.clear();
  EXPECT_EQ(net.num_flows(), 0);
  EXPECT_EQ(net.num_constraints(), 0);
  const auto c2 = net.add_constraint(50.0);
  const FlowNetwork::ConstraintIdx cs2[] = {c2};
  net.add_flow(100.0, 1.0, cs2);
  net.solve();
  EXPECT_DOUBLE_EQ(net.rate(0), 50.0);
}

TEST(FlowNetwork, RejectsBadInput) {
  FlowNetwork net;
  EXPECT_THROW(net.add_constraint(0.0), std::invalid_argument);
  EXPECT_THROW(net.add_constraint(-5.0), std::invalid_argument);
  EXPECT_THROW(net.add_flow(0.0, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(net.add_flow(1.0, 0.0, {}), std::invalid_argument);
  const FlowNetwork::ConstraintIdx bad[] = {7};
  EXPECT_THROW(net.add_flow(1.0, 1.0, bad), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Property tests on random instances: feasibility (no constraint exceeded),
// non-wastefulness (every flow is blocked by something), and the max-min
// property (no flow can be raised without lowering a slower-or-equal flow).
// ---------------------------------------------------------------------------

struct RandomCase {
  std::uint64_t seed;
};

class FlowNetworkProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(FlowNetworkProperty, FeasibleNonWastefulMaxMin) {
  ilan::sim::Xoshiro256ss rng(GetParam().seed);
  FlowNetwork net;

  const int nc = 2 + static_cast<int>(rng.below(6));
  const int nf = 1 + static_cast<int>(rng.below(40));
  std::vector<double> cap(static_cast<std::size_t>(nc));
  for (int c = 0; c < nc; ++c) {
    cap[static_cast<std::size_t>(c)] = rng.uniform(10.0, 200.0);
    net.add_constraint(cap[static_cast<std::size_t>(c)]);
  }
  std::vector<double> fcap(static_cast<std::size_t>(nf));
  std::vector<double> weight(static_cast<std::size_t>(nf));
  std::vector<std::vector<FlowNetwork::ConstraintIdx>> memb(static_cast<std::size_t>(nf));
  for (int f = 0; f < nf; ++f) {
    fcap[static_cast<std::size_t>(f)] = rng.uniform(1.0, 50.0);
    weight[static_cast<std::size_t>(f)] = rng.uniform(1.0, 3.0);
    const int k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(std::min(nc, 3))));
    std::vector<FlowNetwork::ConstraintIdx> cs;
    for (int j = 0; j < k; ++j) {
      const auto c = static_cast<FlowNetwork::ConstraintIdx>(rng.below(static_cast<std::uint64_t>(nc)));
      if (std::find(cs.begin(), cs.end(), c) == cs.end()) cs.push_back(c);
    }
    memb[static_cast<std::size_t>(f)] = cs;
    net.add_flow(fcap[static_cast<std::size_t>(f)], weight[static_cast<std::size_t>(f)], cs);
  }
  net.solve();

  // Feasibility: weighted usage within capacity.
  std::vector<double> used(static_cast<std::size_t>(nc), 0.0);
  for (int f = 0; f < nf; ++f) {
    EXPECT_GT(net.rate(f), 0.0);
    EXPECT_LE(net.rate(f), fcap[static_cast<std::size_t>(f)] + 1e-6);
    for (const auto c : memb[static_cast<std::size_t>(f)]) {
      used[static_cast<std::size_t>(c)] += net.rate(f) * weight[static_cast<std::size_t>(f)];
    }
  }
  for (int c = 0; c < nc; ++c) {
    EXPECT_LE(used[static_cast<std::size_t>(c)], cap[static_cast<std::size_t>(c)] + 1e-6);
  }

  // Non-wastefulness + max-min: every flow is either at its own cap or in a
  // constraint that is saturated; and in that saturated constraint it has
  // the maximal rate among... (weighted max-min: all unfrozen freeze at the
  // same level, so any flow below another flow's rate in the same saturated
  // constraint must be capped elsewhere).
  for (int f = 0; f < nf; ++f) {
    if (net.rate(f) >= fcap[static_cast<std::size_t>(f)] - 1e-6) continue;
    bool saturated_somewhere = false;
    for (const auto c : memb[static_cast<std::size_t>(f)]) {
      if (used[static_cast<std::size_t>(c)] >= cap[static_cast<std::size_t>(c)] - 1e-6) {
        saturated_somewhere = true;
      }
    }
    EXPECT_TRUE(saturated_somewhere) << "flow " << f << " blocked by nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FlowNetworkProperty,
                         ::testing::Values(RandomCase{1}, RandomCase{2}, RandomCase{3},
                                           RandomCase{4}, RandomCase{5}, RandomCase{6},
                                           RandomCase{7}, RandomCase{8}, RandomCase{9},
                                           RandomCase{10}, RandomCase{11},
                                           RandomCase{12}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Persistent-network structural transitions: tombstoning, compact-equivalent
// rebuilds, and the exact-parity contract (a solve on the persistent network
// is bit-identical to a fresh build over the live flows in the same order).
// ---------------------------------------------------------------------------

TEST(FlowNetwork, RemoveFlowZeroesRateAndKeepsIndices) {
  FlowNetwork net;
  const auto c = net.add_constraint(90.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  for (int i = 0; i < 3; ++i) net.add_flow(100.0, 1.0, cs);
  net.solve();
  net.remove_flow(1);
  EXPECT_TRUE(net.dead(1));
  EXPECT_FALSE(net.dead(0));
  EXPECT_EQ(net.num_flows(), 3);
  EXPECT_EQ(net.live_flows(), 2u);
  EXPECT_EQ(net.dead_flows(), 1u);
  EXPECT_DOUBLE_EQ(net.rate(1), 0.0);
  net.solve();
  // The survivors split the freed share; the tombstone stays at zero.
  EXPECT_NEAR(net.rate(0), 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(net.rate(1), 0.0);
  EXPECT_NEAR(net.rate(2), 45.0, 1e-9);
}

TEST(FlowNetwork, RemoveFlowErrors) {
  FlowNetwork net;
  net.add_flow(10.0, 1.0, {});
  net.remove_flow(0);
  EXPECT_THROW(net.remove_flow(0), std::logic_error);       // double tombstone
  EXPECT_THROW(net.remove_flow(5), std::out_of_range);      // no such flow
  EXPECT_THROW(net.set_flow_cap(0, 1.0), std::invalid_argument);  // dead flow
}

// The bit-for-bit contract the incremental resolver rests on: after any
// add/remove sequence, solving the persistent network equals solving a
// from-scratch network holding only the live flows, in append order, with
// exact (not approximate) rate equality.
TEST(FlowNetwork, PersistentSolveMatchesFreshBuildBitForBit) {
  ilan::sim::Xoshiro256ss rng(2024);
  for (int round = 0; round < 20; ++round) {
    FlowNetwork persistent;
    const int nc = 2 + static_cast<int>(rng.below(5));
    std::vector<double> cap(static_cast<std::size_t>(nc));
    for (int c = 0; c < nc; ++c) {
      cap[static_cast<std::size_t>(c)] = rng.uniform(10.0, 200.0);
      persistent.add_constraint(cap[static_cast<std::size_t>(c)]);
    }
    const int nf = 4 + static_cast<int>(rng.below(30));
    struct F {
      double cap, weight;
      std::vector<FlowNetwork::ConstraintIdx> cs;
      bool dead = false;
    };
    std::vector<F> flows;
    for (int f = 0; f < nf; ++f) {
      F fl;
      fl.cap = rng.uniform(1.0, 50.0);
      fl.weight = rng.uniform(1.0, 3.0);
      const int k = 1 + static_cast<int>(rng.below(2));
      for (int j = 0; j < k; ++j) {
        const auto c = static_cast<FlowNetwork::ConstraintIdx>(
            rng.below(static_cast<std::uint64_t>(nc)));
        if (std::find(fl.cs.begin(), fl.cs.end(), c) == fl.cs.end()) fl.cs.push_back(c);
      }
      persistent.add_flow(fl.cap, fl.weight, fl.cs);
      flows.push_back(fl);
    }
    // Tombstone a random subset.
    for (int f = 0; f < nf; ++f) {
      if (rng.below(3) == 0) {
        persistent.remove_flow(f);
        flows[static_cast<std::size_t>(f)].dead = true;
      }
    }
    persistent.solve();

    FlowNetwork fresh;
    for (int c = 0; c < nc; ++c) fresh.add_constraint(cap[static_cast<std::size_t>(c)]);
    std::vector<int> live_of;  // fresh index -> persistent index
    for (int f = 0; f < nf; ++f) {
      const auto& fl = flows[static_cast<std::size_t>(f)];
      if (fl.dead) continue;
      fresh.add_flow(fl.cap, fl.weight, fl.cs);
      live_of.push_back(f);
    }
    fresh.solve();
    for (std::size_t i = 0; i < live_of.size(); ++i) {
      // Exact equality on purpose: tombstone exclusion must not perturb a
      // single bit of any surviving flow's rate.
      EXPECT_EQ(fresh.rate(static_cast<FlowNetwork::FlowIdx>(i)),
                persistent.rate(live_of[i]))
          << "round " << round << " live flow " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise oracle. solve() levels with one shared level, a dense list of
// active constraints and a constraint->flow reverse index; the reference
// below is the textbook water-filling loop it replaced, kept verbatim in
// its arithmetic: per round a ratio scan over all constraints and a
// cap - rate scan over all unfrozen flows, rate += delta per flow,
// residual -= delta * active_weight per constraint, a freeze scan in flow
// order and the force-freeze corner. solve() must reproduce its rates
// bit-for-bit (memcmp, so even the sign of a zero counts).
// ---------------------------------------------------------------------------

struct Spec {
  std::vector<double> cap;  // per constraint
  struct Flow {
    double cap = 0.0;
    double weight = 0.0;
    std::vector<FlowNetwork::ConstraintIdx> cs;
    bool dead = false;
  };
  std::vector<Flow> flows;
};

// What shaped the reference's rounds, summed over every solve of a test.
struct OracleStats {
  int cap_owned = 0;         // the increment came from a flow's own cap
  int constraint_owned = 0;  // ... from a constraint's residual
  int force_freezes = 0;     // no flow froze: the lowest one was forced
  int multi_freeze = 0;      // rounds freezing more than one flow (ties)
  int tombstoned_flows = 0;
  // Ratio-scan terms from constraints whose members have all frozen, left
  // in by an active-weight rounding residue above eps.
  int residue_terms = 0;
};

std::vector<double> reference_solve(const Spec& spec, OracleStats& st) {
  constexpr double kEps = 1e-12;
  const std::size_t nf = spec.flows.size();
  const std::size_t nc = spec.cap.size();
  std::vector<double> residual(spec.cap);
  std::vector<double> active_weight(nc, 0.0);
  std::vector<std::uint8_t> frozen(nf, 0);
  std::vector<double> rate(nf, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    if (spec.flows[f].dead) {
      frozen[f] = 1;
      ++st.tombstoned_flows;
      continue;
    }
    for (const auto c : spec.flows[f].cs) {
      active_weight[static_cast<std::size_t>(c)] += spec.flows[f].weight;
    }
  }
  std::vector<std::size_t> unfrozen;
  for (std::size_t f = 0; f < nf; ++f) {
    if (frozen[f] == 0) unfrozen.push_back(f);
  }
  while (!unfrozen.empty()) {
    double delta = std::numeric_limits<double>::infinity();
    bool cap_owner = false;
    for (std::size_t c = 0; c < nc; ++c) {
      if (active_weight[c] > kEps) {
        const double v = residual[c] / active_weight[c];
        if (v < delta) delta = v;
        if (std::none_of(unfrozen.begin(), unfrozen.end(), [&](std::size_t f) {
              const auto& cs = spec.flows[f].cs;
              return std::find(cs.begin(), cs.end(), static_cast<int>(c)) != cs.end();
            })) {
          ++st.residue_terms;
        }
      }
    }
    for (const std::size_t f : unfrozen) {
      const double v = spec.flows[f].cap - rate[f];
      if (v < delta) {
        delta = v;
        cap_owner = true;
      }
    }
    ++(cap_owner ? st.cap_owned : st.constraint_owned);
    delta = std::max(delta, 0.0);
    if (delta > 0.0) {
      for (const std::size_t f : unfrozen) rate[f] += delta;
      for (std::size_t c = 0; c < nc; ++c) residual[c] -= delta * active_weight[c];
    }
    std::size_t keep = 0;
    int frozen_now = 0;
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      const std::size_t f = unfrozen[i];
      const auto& fl = spec.flows[f];
      bool freeze = rate[f] >= fl.cap - kEps;
      for (std::size_t m = 0; m < fl.cs.size() && !freeze; ++m) {
        freeze = residual[static_cast<std::size_t>(fl.cs[m])] <= kEps;
      }
      if (freeze) {
        frozen[f] = 1;
        for (const auto c : fl.cs) active_weight[static_cast<std::size_t>(c)] -= fl.weight;
        ++frozen_now;
      } else {
        unfrozen[keep++] = f;
      }
    }
    unfrozen.resize(keep);
    if (frozen_now > 1) ++st.multi_freeze;
    if (frozen_now == 0) {
      ++st.force_freezes;
      const std::size_t f = unfrozen.front();
      frozen[f] = 1;
      for (const auto c : spec.flows[f].cs) {
        active_weight[static_cast<std::size_t>(c)] -= spec.flows[f].weight;
      }
      unfrozen.erase(unfrozen.begin());
    }
  }
  return rate;
}

::testing::AssertionResult rates_bitwise_equal(const FlowNetwork& net,
                                               const std::vector<double>& want) {
  const auto got = net.rates();
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "flow count " << got.size() << " vs " << want.size();
  }
  if (!want.empty() && std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) != 0) {
    for (std::size_t f = 0; f < want.size(); ++f) {
      if (std::memcmp(&got[f], &want[f], sizeof(double)) != 0) {
        return ::testing::AssertionFailure() << std::setprecision(17) << "flow " << f << ": "
                                             << got[f] << " vs oracle " << want[f];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Random draws shaped like MemorySystem's networks and their corners:
// capacities at bandwidth scale (1e9, where a saturated residual lands
// above eps and forces freezes) or unit scale, values drawn from small
// sets so caps and constraints tie, a few shared controller-like
// constraints most flows load, and per-flow memberships of 0-4. One
// network in four has weights near 1e5, so that a constraint whose
// members have all frozen can keep an active-weight rounding residue
// above eps (and stay in the ratio scan).
class SpecGen {
 public:
  explicit SpecGen(std::uint64_t seed) : rng_(seed), weight_scale_(rng_.below(4) == 0 ? 1e5 : 1.0) {}

  double scale() { return rng_.below(2) == 0 ? 1.0 : 1e9; }
  double capacity(double scale) {
    static constexpr double kSet[] = {22.0, 45.0, 90.0, 152.0};
    return rng_.below(2) == 0 ? kSet[rng_.below(4)] * scale
                              : rng_.uniform(10.0, 200.0) * scale;
  }
  double flow_cap(double scale) {
    static constexpr double kSet[] = {7.7, 18.0, 22.0};
    return rng_.below(2) == 0 ? kSet[rng_.below(3)] * scale : rng_.uniform(1.0, 60.0) * scale;
  }
  double weight() {
    static constexpr double kSet[] = {1.0, 1.0, 1.3, 1.0 / 0.78};
    return weight_scale_ *
           (rng_.below(2) == 0 ? kSet[rng_.below(4)] : rng_.uniform(1.0, 3.0));
  }
  Spec::Flow flow(int nc, int shared, double scale) {
    Spec::Flow fl;
    fl.cap = flow_cap(scale);
    fl.weight = weight();
    const int k = static_cast<int>(rng_.below(5));
    for (int j = 0; j < k; ++j) {
      // Half the memberships land on the shared constraints.
      const auto c = static_cast<FlowNetwork::ConstraintIdx>(
          j == 0 || rng_.below(2) == 0 ? rng_.below(static_cast<std::uint64_t>(shared))
                                       : rng_.below(static_cast<std::uint64_t>(nc)));
      if (std::find(fl.cs.begin(), fl.cs.end(), c) == fl.cs.end()) fl.cs.push_back(c);
    }
    return fl;
  }
  std::uint64_t below(std::uint64_t n) { return rng_.below(n); }

 private:
  ilan::sim::Xoshiro256ss rng_;
  double weight_scale_;
};

void add_to(FlowNetwork& net, Spec& spec, Spec::Flow fl) {
  net.add_flow(fl.cap, fl.weight, fl.cs);
  spec.flows.push_back(std::move(fl));
}

TEST(FlowNetworkOracle, RandomNetworksMatchTheTextbookLoopBitForBit) {
  OracleStats st;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SpecGen gen(seed);
    const double scale = gen.scale();
    FlowNetwork net;
    Spec spec;
    const int nc = 1 + static_cast<int>(gen.below(12));
    const int shared = 1 + static_cast<int>(gen.below(static_cast<std::uint64_t>(std::min(nc, 3))));
    for (int c = 0; c < nc; ++c) {
      spec.cap.push_back(gen.capacity(scale));
      net.add_constraint(spec.cap.back());
    }
    const int nf = 1 + static_cast<int>(gen.below(60));
    for (int f = 0; f < nf; ++f) add_to(net, spec, gen.flow(nc, shared, scale));
    // Tombstone a random subset — sometimes everything.
    const std::uint64_t kill = gen.below(4);
    for (int f = 0; f < nf; ++f) {
      if (kill == 3 || gen.below(4) < kill) {
        net.remove_flow(f);
        spec.flows[static_cast<std::size_t>(f)].dead = true;
      }
    }
    net.solve();
    ASSERT_TRUE(rates_bitwise_equal(net, reference_solve(spec, st))) << "seed " << seed;
  }
  // The draws must reach every kind of round the solver distinguishes.
  EXPECT_GT(st.cap_owned, 0);
  EXPECT_GT(st.constraint_owned, 0);
  EXPECT_GT(st.force_freezes, 0);
  EXPECT_GT(st.multi_freeze, 0);
  EXPECT_GT(st.tombstoned_flows, 0);
  EXPECT_GT(st.residue_terms, 0);
}

// The persistent life cycle MemorySystem drives: appends after tombstones,
// in-place capacity and flow-cap updates, and many solves reusing one
// object's scratch state. Every solve must match the oracle bit-for-bit.
TEST(FlowNetworkOracle, PersistentChurnAndCapUpdatesMatchTheTextbookLoopBitForBit) {
  OracleStats st;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SpecGen gen(1000 + seed);
    const double scale = gen.scale();
    FlowNetwork net;
    Spec spec;
    const int nc = 2 + static_cast<int>(gen.below(10));
    const int shared = 1 + static_cast<int>(gen.below(2));
    for (int c = 0; c < nc; ++c) {
      spec.cap.push_back(gen.capacity(scale));
      net.add_constraint(spec.cap.back());
    }
    for (int step = 0; step < 40; ++step) {
      const int adds = static_cast<int>(gen.below(5));
      for (int i = 0; i < adds; ++i) add_to(net, spec, gen.flow(nc, shared, scale));
      const auto nf = static_cast<std::uint64_t>(spec.flows.size());
      for (int i = 0; nf > 0 && i < 3; ++i) {
        const auto f = static_cast<FlowNetwork::FlowIdx>(gen.below(nf));
        auto& fl = spec.flows[static_cast<std::size_t>(f)];
        switch (gen.below(3)) {
          case 0:
            if (!fl.dead) {
              net.remove_flow(f);
              fl.dead = true;
            }
            break;
          case 1:
            if (!fl.dead) {
              fl.cap = gen.flow_cap(scale);
              net.set_flow_cap(f, fl.cap);
            }
            break;
          default: {
            const auto c = static_cast<FlowNetwork::ConstraintIdx>(
                gen.below(static_cast<std::uint64_t>(nc)));
            spec.cap[static_cast<std::size_t>(c)] = gen.capacity(scale);
            net.set_capacity(c, spec.cap[static_cast<std::size_t>(c)]);
            break;
          }
        }
      }
      net.solve();
      ASSERT_TRUE(rates_bitwise_equal(net, reference_solve(spec, st)))
          << "seed " << seed << " step " << step;
    }
  }
  EXPECT_GT(st.cap_owned, 0);
  EXPECT_GT(st.constraint_owned, 0);
  EXPECT_GT(st.force_freezes, 0);
  EXPECT_GT(st.tombstoned_flows, 0);
}

// A flow's cap owns the first round, a saturated constraint the second,
// and both freeze exactly the flows the textbook loop freezes.
TEST(FlowNetworkOracle, CapOwnedThenConstraintOwnedRound) {
  FlowNetwork net;
  Spec spec;
  spec.cap = {90.0, 40.0};
  net.add_constraint(90.0);
  net.add_constraint(40.0);
  add_to(net, spec, {10.0, 1.0, {0}});      // freezes at its cap (round 1)
  add_to(net, spec, {100.0, 1.0, {0, 1}});  // limited by constraint 1
  add_to(net, spec, {100.0, 1.3, {1}});
  add_to(net, spec, {100.0, 1.0, {0}});
  net.solve();
  OracleStats st;
  EXPECT_TRUE(rates_bitwise_equal(net, reference_solve(spec, st)));
  EXPECT_GT(st.cap_owned, 0);
  EXPECT_GT(st.constraint_owned, 0);
  EXPECT_DOUBLE_EQ(net.rate(0), 10.0);
}

// The dirty flag reports in-place updates that moved a value since the
// last solve (equal values are no-ops), survives structural edits, and
// solve() clears it.
TEST(FlowNetwork, DirtyFlagTracksInPlaceUpdates) {
  FlowNetwork net;
  const auto c = net.add_constraint(50.0);
  const FlowNetwork::ConstraintIdx cs[] = {c};
  net.add_flow(100.0, 1.0, cs);
  net.add_flow(100.0, 1.0, cs);
  EXPECT_FALSE(net.dirty());
  net.solve();
  net.set_capacity(c, 50.0);
  net.set_flow_cap(0, 100.0);
  EXPECT_FALSE(net.dirty());
  net.set_capacity(c, 60.0);
  EXPECT_TRUE(net.dirty());
  net.remove_flow(1);
  EXPECT_TRUE(net.dirty());
  net.solve();
  EXPECT_FALSE(net.dirty());
  EXPECT_NEAR(net.rate(0), 60.0, 1e-9);
  net.set_flow_cap(0, 30.0);
  EXPECT_TRUE(net.dirty());
  net.solve();
  EXPECT_DOUBLE_EQ(net.rate(0), 30.0);
}

}  // namespace
