#!/usr/bin/env python3
"""Build and run the toolkit's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the toolkit from ../src) into $CARGO_TARGET_DIR,
default .bench_build; later calls rebuild incrementally.  Build output goes
to stderr.  The run's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; its stderr carries the named
metrics, the layer tables and the host fingerprint.  Scratch data lives in
.bench_work/ and is removed at exit; results files and Chrome traces are
kept in .bench_results/.  NOTES.md describes the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("analyze_dirty", "serve_live", "campaign_grid")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_checked(command, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print("perfbench: build step timed out: " + " ".join(command), file=sys.stderr)
        return False


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_checked(["cmake", "--build", out, "--target", target, "-j", jobs],
                       BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, target)
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20190120)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        if binary is None:
            return 2
        return subprocess.run([binary], stdout=sys.stderr, cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--work-dir=" + os.path.join(ROOT, ".bench_work", args.workload),
               "--results-dir=" + os.path.join(ROOT, ".bench_results")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    # The result line, also after a failed output check (correct: false,
    # non-zero exit).
    lines = [line for line in stdout.splitlines() if line.strip()]
    if lines:
        print(lines[-1], flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
