// simbench: one benchmark for the simulator's host cost and the modelled
// design's simulated outcomes. See simbench/README.md.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints informational lines starting with '#', then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

const auto kProcessStart = simbench::Clock::now();

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\nworkloads:",
               why.c_str());
  for (const auto& w : simbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

void print_json(const simbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  simbench::Options opts;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, v);
      have[1] = true;
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_u64(flag, v));
      have[2] = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, v);
      if (t > 1) usage("--trace takes 0 or 1");
      opts.trace = t == 1;
      have[3] = true;
    } else if (flag == "--spans") {
      opts.spans_path = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  try {
    simbench::set_workload_environment(opts.workload);
    const simbench::Result r = simbench::run_workload(opts, kProcessStart);
    std::fflush(stderr);
    print_json(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
