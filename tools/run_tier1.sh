#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full ctest suite.
#
#   tools/run_tier1.sh                            # plain build in build/
#   tools/run_tier1.sh lint                       # ilan-lint + clang-tidy
#   tools/run_tier1.sh analyze                    # sanitizer matrix + selfcheck
#   tools/run_tier1.sh faults                     # fault-injection gate
#   tools/run_tier1.sh obs                        # observability gate
#   tools/run_tier1.sh sched                      # scheduler-registry gate
#   tools/run_tier1.sh solver                     # incremental-solver gate
#   tools/run_tier1.sh serve                      # serving-layer SLO gate
#   tools/run_tier1.sh dag                        # task-graph gate
#   tools/run_tier1.sh topo                       # topology-registry gate
#   ILAN_SANITIZE=address   tools/run_tier1.sh    # ASan build in build-asan/
#   ILAN_SANITIZE=thread    tools/run_tier1.sh    # TSan build in build-tsan/
#   ILAN_SANITIZE=undefined tools/run_tier1.sh    # UBSan build in build-ubsan/
#
# Sanitized builds get their own build directory so they never dirty the
# primary one. The TSan run is what keeps the bench harness's run_many
# worker pool honest: the suite's parallel-vs-sequential determinism tests
# execute under instrumentation.
#
# `lint` builds the primary tree, runs ilan-lint over src/, runs the
# ilan-verify semantic analysis (call-graph taint, observer discipline,
# event-tag exhaustiveness, knob drift, metric grammar — DESIGN.md §14)
# over src/ bench/ tools/ against the checked-in baseline, and — when
# clang-tidy is installed — runs the .clang-tidy baseline over the
# simulation sources using the exported compile commands. A missing
# clang-tidy is a printed skip by default and a hard failure with
# ILAN_REQUIRE_CLANG_TIDY=1.
#
# `analyze` is the full correctness-analysis pass: lint + ilan-verify on
# the primary build, the ASan/TSan/UBSan matrix (each suite in its own
# build dir — their full ctest runs repeat the ilan_verify_gate under
# instrumentation) plus the determinism/race selfcheck binary
# (bench/selfcheck) on the primary build.
#
# `faults` is the fault-injection gate: the fault-focused test binaries and
# `bench/selfcheck --faults` (digest parity for every shipped ILAN_FAULTS
# scenario + watchdog structured-failure check) run on the primary build and
# then under each sanitizer build — deterministic perturbation must stay
# deterministic with instrumentation and a racing run_many pool.
#
# `obs` is the observability gate: the full selfcheck sweep with
# ILAN_METRICS=1 (so 2-run digest parity and jobs=1-vs-4 parity also cover
# the metrics-registry digests), run on the primary build and then under
# ASan and TSan — attaching the registry must not perturb the committed
# event stream, and the metrics themselves must be bit-reproducible.
#
# `sched` is the scheduler-registry gate: the registry/spec unit tests plus
# the sched_equivalence digest gate (registry-built schedulers must
# reproduce the pre-refactor monolithic schedulers bit-for-bit), run on the
# primary build and then under ASan and TSan.
#
# `serve` is the serving-layer gate: the serve unit tests,
# `bench/selfcheck --serve` (2-run digest + metrics parity and jobs=1-vs-4
# seed-series parity for every traffic scenario, plus the overload
# engagement check: shedding AND breaker trips), and the bench/serve_slo
# nominal-SLO gate (shed-rate floor + p99 bound). Runs on the primary
# build and then under ASan and TSan — admission, deadline watchdogs,
# backoff and breakers must stay bit-deterministic with instrumentation.
#
# `dag` is the task-graph gate: the task-graph unit tests (rt + analysis
# release-edge races + sched narrowed-carve matrix), the sched_equivalence
# digest gate (its task-graph rows pin lu-dag/treered/dphim under
# baseline, ilan and dist=dep-aware) and `bench/selfcheck --dag` (2-run digest + metrics parity and race-audit
# cleanliness for every DAG kernel under the standard schedulers plus
# dist=dep-aware, and jobs=1-vs-4 run_many parity over the DAG path). Runs
# on the primary build and then under ASan and TSan.
#
# `topo` is the topology-registry gate: the topo unit tests (registry spec
# grammar, builder validation, far tier, heterogeneous cores) and
# `bench/selfcheck --topo` (2-run digest + metrics parity and jobs=1-vs-4
# parity for every registered ILAN_TOPO topology, plus the default ==
# legacy-zen4-preset anchor). Runs on the primary build and then under
# ASan and TSan.
#
# `solver` is the incremental-solver gate: the FlowNetwork unit tests
# (including the randomized bitwise equivalence test against the textbook
# water-filling loop kept in the test as an oracle), the engine and
# MemorySystem unit tests (the single completion event and the engine's
# schedule_tied ordering it relies on), the bench/solver_gate
# regression gate (cache hit-rate floor, counter invariant, median-of-runs
# events/s floor — the timing floor disables itself in sanitized builds),
# and a solver_gate rerun with ILAN_SOLVER_CHECK=1 so every resolve of the
# sp/cg runs is cross-checked bit-for-bit against a from-scratch solve.
# Runs on the primary build and then under ASan and TSan.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
mode="${1:-build}"

build_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
    *) echo "ILAN_SANITIZE must be 'address', 'thread' or 'undefined', got '$san'" >&2
       exit 2 ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

run_lint() {
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j "$jobs" --target ilan-lint ilan-verify
  echo "== ilan-lint src/ =="
  ./build/tools/ilan-lint src
  echo "== ilan-verify src/ bench/ tools/ (semantic analysis) =="
  ./build/tools/ilan-verify --baseline tools/ilan_verify/baseline.txt \
    --readme README.md src bench tools
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (baseline .clang-tidy) =="
    find src -name '*.cpp' -print0 |
      xargs -0 -P "$jobs" -n 4 clang-tidy -p build --quiet
  elif [ "${ILAN_REQUIRE_CLANG_TIDY:-0}" != "0" ]; then
    echo "== clang-tidy not installed but ILAN_REQUIRE_CLANG_TIDY is set: failing ==" >&2
    exit 1
  else
    echo "== clang-tidy not installed; skipped (ilan-lint/ilan-verify still gate;" \
         "set ILAN_REQUIRE_CLANG_TIDY=1 to make this a failure) =="
  fi
}

run_faults_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target selfcheck test_fault
  echo "== fault tests (${san:-plain}) =="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -R 'Fault|fault'
  echo "== selfcheck --faults (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/selfcheck" --faults
}

run_obs_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target selfcheck test_obs test_trace
  echo "== obs + trace tests (${san:-plain}) =="
  "./$build_dir/tests/test_obs"
  "./$build_dir/tests/test_trace"
  echo "== selfcheck with ILAN_METRICS=1 (${san:-plain}) =="
  ILAN_BENCH_JSON=0 ILAN_METRICS=1 "./$build_dir/bench/selfcheck"
}

run_sched_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target test_sched test_sched_equivalence
  echo "== scheduler registry tests (${san:-plain}) =="
  "./$build_dir/tests/test_sched"
  echo "== sched_equivalence digest gate (${san:-plain}) =="
  "./$build_dir/tests/test_sched_equivalence"
}

run_dag_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target selfcheck test_rt test_analysis test_sched \
    test_sched_equivalence
  echo "== task-graph unit tests (${san:-plain}) =="
  "./$build_dir/tests/test_rt" --gtest_filter='TaskGraph.*:Team.*'
  "./$build_dir/tests/test_analysis" --gtest_filter='RaceAuditorGraph.*'
  "./$build_dir/tests/test_sched" --gtest_filter='SchedDist.*:SchedRegistry.DepAware*'
  echo "== sched_equivalence digest gate incl. task-graph rows (${san:-plain}) =="
  "./$build_dir/tests/test_sched_equivalence"
  echo "== selfcheck --dag (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/selfcheck" --dag
}

run_topo_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target selfcheck test_topo test_mem_system
  echo "== topology tests (${san:-plain}) =="
  "./$build_dir/tests/test_topo"
  echo "== far-tier memory tests (${san:-plain}) =="
  "./$build_dir/tests/test_mem_system" --gtest_filter='FarTier.*'
  echo "== selfcheck --topo (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/selfcheck" --topo
}

run_solver_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target test_mem_flow test_sim test_mem_system \
    solver_gate
  echo "== FlowNetwork tests incl. bitwise oracle equivalence (${san:-plain}) =="
  "./$build_dir/tests/test_mem_flow"
  echo "== engine + MemorySystem tests (${san:-plain}) =="
  "./$build_dir/tests/test_sim"
  "./$build_dir/tests/test_mem_system"
  echo "== solver_gate (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/solver_gate"
  echo "== solver_gate with ILAN_SOLVER_CHECK=1 (${san:-plain}) =="
  ILAN_BENCH_JSON=0 ILAN_SOLVER_CHECK=1 ILAN_SOLVER_MIN_EVPS=0 \
    "./$build_dir/bench/solver_gate"
}

run_serve_one() {
  local san="$1" build_dir
  case "$san" in
    "")        build_dir=build ;;
    address)   build_dir=build-asan ;;
    thread)    build_dir=build-tsan ;;
    undefined) build_dir=build-ubsan ;;
  esac
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    ${san:+-DILAN_SANITIZE="$san"}
  cmake --build "$build_dir" -j "$jobs" --target test_serve selfcheck serve_slo
  echo "== serve tests (${san:-plain}) =="
  "./$build_dir/tests/test_serve"
  echo "== selfcheck --serve (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/selfcheck" --serve
  echo "== serve_slo nominal-SLO gate (${san:-plain}) =="
  ILAN_BENCH_JSON=0 "./$build_dir/bench/serve_slo"
}

case "$mode" in
  build)
    build_one "${ILAN_SANITIZE:-}"
    ;;
  lint)
    run_lint
    ;;
  analyze)
    run_lint
    for san in address thread undefined; do
      echo "== sanitizer: $san =="
      build_one "$san"
    done
    echo "== determinism/race selfcheck =="
    cmake --build build -j "$jobs" --target selfcheck
    ILAN_BENCH_JSON=0 ./build/bench/selfcheck
    ;;
  faults)
    run_faults_one ""
    for san in address thread undefined; do
      echo "== sanitizer: $san =="
      run_faults_one "$san"
    done
    ;;
  obs)
    run_obs_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_obs_one "$san"
    done
    ;;
  sched)
    run_sched_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_sched_one "$san"
    done
    ;;
  dag)
    run_dag_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_dag_one "$san"
    done
    ;;
  topo)
    run_topo_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_topo_one "$san"
    done
    ;;
  solver)
    run_solver_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_solver_one "$san"
    done
    ;;
  serve)
    run_serve_one ""
    for san in address thread; do
      echo "== sanitizer: $san =="
      run_serve_one "$san"
    done
    ;;
  *)
    echo "usage: tools/run_tier1.sh [build|lint|analyze|faults|obs|sched|dag|topo|solver|serve]" >&2
    exit 2
    ;;
esac
