#!/usr/bin/env python3
"""Build the solve-path benchmark from source and run one workload.

    python3 solvebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`solvebench/` (the library from `src/` plus the benchmark program) into
`$CARGO_TARGET_DIR/solvebench` (default `.bench_build/solvebench`); later
runs rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Extra flags (`--tiny`,
`--tamper`) are passed through to the program. Exits non-zero without a
result when the build fails or the run does not finish in time.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "solvebench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 2)
    return subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out = build_dir()
    if not build(out):
        print("solvebench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(os.path.dirname(out), "solvebench-run")
    os.makedirs(spans, exist_ok=True)
    command = [os.path.join(out, "solvebench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace,
               "--out-dir", os.path.relpath(spans, os.getcwd())] + extra
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("solvebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
