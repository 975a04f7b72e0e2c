#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace simbench::checks {

namespace {

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace

std::string tiling(std::int64_t iterations, std::vector<Range> ranges) {
  std::sort(ranges.begin(), ranges.end());
  std::int64_t next = 0;
  for (const auto& [b, e] : ranges) {
    if (e <= b) return fmt("empty or reversed range [%lld, %lld)", (long long)b, (long long)e);
    if (b < next) return fmt("iteration %lld ran twice", (long long)b);
    if (b > next) return fmt("iterations [%lld, %lld) never ran", (long long)next, (long long)b);
    next = e;
  }
  if (next != iterations) {
    return fmt("ranges end at %lld, loop has %lld iterations", (long long)next,
               (long long)iterations);
  }
  return {};
}

std::string dag_order(const std::vector<std::vector<std::int32_t>>& preds,
                      std::span<const std::int32_t> runs,
                      std::span<const std::int64_t> start,
                      std::span<const std::int64_t> finish) {
  const std::size_t n = preds.size();
  if (runs.size() != n || start.size() != n || finish.size() != n) {
    return fmt("record covers %zu nodes, graph has %zu", runs.size(), n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (runs[i] != 1) return fmt("node %zu ran %d times", i, runs[i]);
    for (const std::int32_t p : preds[i]) {
      const auto pi = static_cast<std::size_t>(p);
      if (start[i] < finish[pi]) {
        return fmt("node %zu started at %lld ps before predecessor %d finished at %lld ps",
                   i, (long long)start[i], p, (long long)finish[pi]);
      }
    }
  }
  return {};
}

std::string makespan_bound(double makespan_s, double cycles, int cores, double peak_hz) {
  const double floor_s = cycles / (static_cast<double>(cores) * peak_hz);
  if (!(makespan_s >= floor_s)) {
    return fmt("makespan %.9g s below the CPU floor %.9g s", makespan_s, floor_s);
  }
  return {};
}

std::string whole_nodes(int threads, int mask_nodes, int cores_per_node) {
  if (threads != mask_nodes * cores_per_node) {
    return fmt("%d threads on %d nodes of %d cores", threads, mask_nodes, cores_per_node);
  }
  return {};
}

std::string arrivals(std::span<const std::int64_t> generated,
                     std::span<const std::int64_t> offered) {
  if (generated.size() != offered.size()) {
    return fmt("%zu tenants generated, %zu served", generated.size(), offered.size());
  }
  for (std::size_t t = 0; t < generated.size(); ++t) {
    if (generated[t] != offered[t]) {
      return fmt("tenant %zu offered %lld requests, %lld generated", t,
                 (long long)offered[t], (long long)generated[t]);
    }
  }
  return {};
}

std::string conservation(std::int64_t offered, std::int64_t ok, std::int64_t deadline_miss,
                         std::int64_t expired, std::int64_t dropped) {
  if (offered != ok + deadline_miss + expired + dropped) {
    return fmt("offered %lld != ok %lld + miss %lld + expired %lld + dropped %lld",
               (long long)offered, (long long)ok, (long long)deadline_miss,
               (long long)expired, (long long)dropped);
  }
  return {};
}

std::string latencies(std::vector<double> lat, std::int64_t ok,
                      std::vector<double> deadlines) {
  if (static_cast<std::int64_t>(lat.size()) != ok) {
    return fmt("%zu latencies for %lld in-deadline completions", lat.size(), (long long)ok);
  }
  for (const double l : lat) {
    if (!(l > 0.0)) return fmt("non-positive latency %.9g s", l);
  }
  // Hall's condition for matching sorted latencies to sorted deadlines:
  // the k-th largest latency must not exceed the k-th largest deadline.
  std::sort(lat.rbegin(), lat.rend());
  std::sort(deadlines.rbegin(), deadlines.rend());
  if (lat.size() > deadlines.size()) {
    return fmt("%zu latencies for %zu requests", lat.size(), deadlines.size());
  }
  for (std::size_t k = 0; k < lat.size(); ++k) {
    if (lat[k] > deadlines[k]) {
      return fmt("latency %.9g s exceeds the deadline %.9g s it can be matched to", lat[k],
                 deadlines[k]);
    }
  }
  return {};
}

std::string same_digest(std::uint64_t first, std::uint64_t repeat) {
  if (first != repeat) {
    return fmt("digest %016llx differs from the first run's %016llx",
               (unsigned long long)repeat, (unsigned long long)first);
  }
  return {};
}

}  // namespace simbench::checks
