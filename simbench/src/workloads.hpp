// The benchmark's workloads and the repetition protocol that times them.
//
// A workload is a fixed set of simulations. One run of the benchmark builds
// the set, then repeats it in rounds (every simulation once per round, the
// order rotated each round) until the requested host seconds have passed.
// Host time per simulation is its fastest repetition, summed over the set;
// simulated outcomes come from the first round, and every later round must
// reproduce its event digest exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"

namespace simbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;        // per-layer run instead of end-to-end
  std::string spans_path;    // where the traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Clears every inherited ILAN_* variable and sets only the ones `workload`
// needs, so no knob from the caller's environment reaches the simulator.
// Throws std::invalid_argument on an unknown workload.
void set_workload_environment(const std::string& workload);

// Runs one workload per `opts`. Span timestamps count from `process_start`.
[[nodiscard]] Result run_workload(const Options& opts, Clock::time_point process_start);

}  // namespace simbench
