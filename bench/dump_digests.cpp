// Prints the sched_equivalence golden tables in source form: one Golden row
// per (kernel, scheduler spec) with the event and metrics digests of the
// canonical capture configuration (paper machine, seed 42, 3 timesteps,
// ILAN_METRICS=1). This is the executable form of the recapture recipe at
// the bottom of tests/sched_equivalence_test.cpp — run it after a
// DELIBERATE behaviour change, paste the output over the tables, and say
// so loudly in the commit message. Three tables are printed in order:
// kGolden (taskloop kernels), kDagGolden (task-graph kernels) and
// kFaultGolden (cg under ILAN_FAULTS scenarios); the manual-scheduler
// goldens in the same file follow as a trailer.
#include <cstdio>
#include <cstdint>

#include "harness.hpp"
#include "kernels/kernels.hpp"
#include "obs/env.hpp"
#include "rt/team.hpp"
#include "sched/schedulers.hpp"

namespace {

using namespace ilan;

kernels::KernelOptions golden_opts() {
  kernels::KernelOptions opts;
  opts.timesteps = 3;
  return opts;
}

std::uint64_t run_manual(const char* kernel, rt::LoopConfig cfg, core::IlanParams p) {
  rt::Machine machine(bench::paper_machine(42));
  machine.engine().set_digest_enabled(true);
  sched::ManualScheduler scheduler(cfg, p);
  rt::Team team(machine, scheduler);
  const auto prog = kernels::make_kernel(kernel, machine, golden_opts());
  (void)prog.run(team);
  return machine.engine().event_digest();
}

// Runs one golden configuration and prints its row; `faults` non-null adds
// the scenario column of kFaultGolden. Returns false on a failed run.
bool print_row(const char* kernel, const char* spec, const char* faults) {
  const auto r = bench::run_once(kernel, spec, /*seed=*/42, golden_opts());
  if (!r.ok()) {
    std::fprintf(stderr, "FAILED %s / %s: %s\n", kernel, spec, r.error.c_str());
    return false;
  }
  std::printf("    {\"%s\", \"%s\", ", kernel, spec);
  if (faults != nullptr) std::printf("\"%s\", ", faults);
  std::printf("0x%016llxull, 0x%016llxull},\n",
              static_cast<unsigned long long>(r.event_digest),
              static_cast<unsigned long long>(r.metrics_digest));
  return true;
}

}  // namespace

int main() {
  const obs::ScopedEnv metrics_env("ILAN_METRICS", "1");
  const obs::ScopedEnv json_env("ILAN_BENCH_JSON", "0");
  const obs::ScopedEnv no_faults_env("ILAN_FAULTS");  // only kFaultGolden sets it
  static const char* kKernels[] = {"ft", "bt", "cg", "lu", "sp", "matmul", "lulesh"};
  static const char* kSpecs[] = {"baseline", "work-sharing", "ilan", "ilan-nomold"};
  std::printf("// kGolden\n");
  for (const char* kernel : kKernels) {
    for (const char* spec : kSpecs) {
      if (!print_row(kernel, spec, nullptr)) return 1;
    }
  }
  static const char* kDagKernels[] = {"lu-dag", "treered", "dphim"};
  static const char* kDagSpecs[] = {"baseline", "ilan", "composed:dist=dep-aware"};
  std::printf("// kDagGolden\n");
  for (const char* kernel : kDagKernels) {
    for (const char* spec : kDagSpecs) {
      if (!print_row(kernel, spec, nullptr)) return 1;
    }
  }
  static const char* kFaultScenarios[] = {"storm", "throttle"};
  std::printf("// kFaultGolden\n");
  for (const char* faults : kFaultScenarios) {
    const obs::ScopedEnv faults_env("ILAN_FAULTS", faults);
    if (!print_row("cg", "ilan", faults)) return 1;
  }
  {
    rt::LoopConfig cfg;
    std::printf("// manual cg (defaults):            0x%016llxull\n",
                static_cast<unsigned long long>(run_manual("cg", cfg, {})));
  }
  {
    rt::LoopConfig cfg;
    cfg.num_threads = 16;
    cfg.steal_policy = rt::StealPolicy::kFull;
    core::IlanParams p;
    p.stealable_fraction = 0.25;
    std::printf("// manual cg (16 threads, full, 0.25): 0x%016llxull\n",
                static_cast<unsigned long long>(run_manual("cg", cfg, p)));
  }
  return 0;
}
