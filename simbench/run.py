#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 simbench/run.py --self-test

Builds simbench/ (and the simulator sources it compiles) with a fixed build
type into .bench_build/simbench-<type>/ at the repository root, then runs the
benchmark binary. The binary prints '#' lines describing the run and, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error.

With --trace 1 the run's spans are written as a Chrome trace to
.bench_build/simbench-<type>/spans-<workload>-seed<n>.json.

--self-test builds and runs the test of the benchmark's own correctness
checks instead.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TYPE = "Release"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / f"simbench-{BUILD_TYPE.lower()}"


def clean_env():
    """The caller's environment without any ILAN_* knob: the binary sets
    the ones a workload needs itself."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ILAN_")}


def build(target):
    BUILD.mkdir(parents=True, exist_ok=True)
    env = clean_env()
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build("checks_test" if args.self_test else "simbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([str(binary)], env=clean_env()).returncode

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
