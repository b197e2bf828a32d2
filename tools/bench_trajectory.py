#!/usr/bin/env python3
"""Append one entry to the committed perfbench trajectory (BENCH_perfbench.json).

    python3 tools/bench_trajectory.py <change dir> --title <text>
        [--parent <commit> <dir>] [--method <text>]

Each directory holds perfbench result documents (run.py writes them under
.bench_results/<workload>/; searched recursively, as compare.py reads them).
Only `--trace 0` documents count. For every workload the entry records the
number of runs and, for each end-to-end metric of BENCHMARK.json, the median
and quartiles across runs (compare.py's statistics) of the change and, with
--parent, of its parent commit measured in the same session. The entry is
committed together with the change it measures, so its commit is written as
null: the commit that adds the entry. See docs/bench-format.md.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from compare import load_set, spread  # noqa: E402

TRAJECTORY = ROOT / "BENCH_perfbench.json"


def summarize(directory, metrics):
    """{workload: {"runs": n, metric: {"median", "q1", "q3"}}} over trace-0 runs."""
    runs, failed = load_set(directory)
    out = {}
    for (workload, trace), values in sorted(runs.items()):
        if trace != 0:
            continue
        if failed[(workload, trace)]:
            raise SystemExit(f"{directory}: {workload} has failed cells; not recording it")
        row = {"runs": len(values[metrics[0]])}
        for name in metrics:
            med, q1, q3 = spread(values[name])
            row[name] = {"median": med, "q1": q1, "q3": q3}
        out[workload] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("change_dir")
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent", nargs=2, metavar=("COMMIT", "DIR"), default=None,
                        help="the parent commit and its result documents")
    parser.add_argument("--method", default="")
    args = parser.parse_args()

    doc = json.loads(TRAJECTORY.read_text())
    metrics = doc["metrics"]
    parent, parent_dir = args.parent or (None, None)
    entry = {
        "title": args.title,
        "commit": None,
        "parent": parent,
        "source": "paired perfbench run" if parent else "perfbench run",
        "method": args.method,
        "workloads": summarize(args.change_dir, metrics),
        "parent_workloads": summarize(parent_dir, metrics) if parent else None,
    }
    doc["entries"].append(entry)
    TRAJECTORY.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"appended '{args.title}' ({len(entry['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
