#!/usr/bin/env python3
"""Run one benchmark measurement of the sdsched simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench` binary
from source (CMake, Release, into $CARGO_TARGET_DIR or .bench_build/), runs
the named workload in its own process, saves the full result document
(environment stamp, raw per-repetition samples, medians and quartiles)
under .bench_results/<workload>/, and prints the one-line JSON result as the
last line of standard output. Build output goes to standard error.

Exit status is 0 only when the build succeeded, the measurement ran and the
result line was printed. See perfbench/README.md for the workloads, the
metrics and how to compare two result sets (compare.py).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULTS_DIR = ROOT / ".bench_results"
WORKLOADS = ("curie-trace", "ricc-deepqueue", "cirne-malleable")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    """Configure (once) and build the perfbench binary; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    binary = out / "perfbench"
    if not binary.is_file():
        raise FileNotFoundError(f"build produced no {binary}")
    return binary


def commit_id() -> str:
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  check=True, capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    results = RESULTS_DIR / args.workload
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = results / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    # Paths relative to the checkout root (the binary runs there), so result
    # documents carry no machine-specific prefix.
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", "data/traces", "--digests", "perfbench/digests.txt",
               "--out", str(out.relative_to(ROOT)), "--commit", commit_id()]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"exit status {proc.returncode}")
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no result: {err}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(f"  result document: {out.relative_to(ROOT)}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
