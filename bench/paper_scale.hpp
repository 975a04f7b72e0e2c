// A MemorySystem-shaped flow problem at paper-machine scale: 8 memory
// controllers, one core constraint per busy core (64 cores, 2 sockets),
// cross-socket link constraints, and 2 flows per task (one local stream,
// one remote stream crossing the link) — the structure resolve() builds.
// The microbenchmarks in micro_primitives.cpp time solves of it.
#pragma once

#include <vector>

#include "mem/flow_network.hpp"

namespace ilan::bench::paper_scale {

constexpr int kNodes = 8;
constexpr int kCores = 64;

inline int build(mem::FlowNetwork& net, int tasks) {
  net.clear();
  std::vector<mem::FlowNetwork::ConstraintIdx> ctrl;
  for (int n = 0; n < kNodes; ++n) ctrl.push_back(net.add_constraint(90e9));
  const auto link01 = net.add_constraint(152e9);
  const auto link10 = net.add_constraint(152e9);
  int flows = 0;
  for (int t = 0; t < tasks; ++t) {
    const int core = t % kCores;
    const int home = core / (kCores / kNodes);
    const int remote = (home + kNodes / 2) % kNodes;
    const auto core_c = net.add_constraint(22e9);
    const mem::FlowNetwork::ConstraintIdx local_cs[2] = {ctrl[static_cast<std::size_t>(home)],
                                                         core_c};
    net.add_flow(22e9, 1.0, local_cs);
    ++flows;
    const mem::FlowNetwork::ConstraintIdx remote_cs[3] = {
        ctrl[static_cast<std::size_t>(remote)], core_c, home < kNodes / 2 ? link01 : link10};
    net.add_flow(18e9, 1.3, remote_cs);
    ++flows;
  }
  return flows;
}

}  // namespace ilan::bench::paper_scale
