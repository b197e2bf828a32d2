#!/usr/bin/env python3
"""Compare two perfbench result sets (benchdiff).

    python3 perfbench/compare.py <base dir> <new dir> [--benchmark BENCHMARK.json]

Each directory holds the result documents run.py writes
(.bench_results/<workload>/*.json, searched recursively); one document is
one run. For every workload and metric the table shows each side's median
and quartiles across runs (statistics.quantiles, n=4), the ratio new/base
with its base, and a verdict:

  better      the new median is better than the base median by more than
              the spread (quartile distance) of either side, or every new
              run beats every base run;
  worse       the same rule in the other direction;
  unresolved  the difference is inside the run-to-run spread.

End-to-end metrics also get a gate column: FAIL when the new median is worse
than the base median by more than the metric's bound in BENCHMARK.json.
Per-layer counts that repeat exactly on both sides are reported as counts.
Exit status is 1 when any gate fails, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{(workload, trace): {metric: [value per run]}} plus failed-cell totals."""
    runs = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for path in sorted(Path(directory).rglob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("schema") != "sdsched-perfbench-v1":
            continue
        key = (doc["workload"], doc["trace"])
        failed[key] += doc["failed"]
        for name, metric in doc["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs, failed


def spread(values):
    """(median, q1, q3) across runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, better):
    """better / worse / unresolved for one metric, `better` = higher|lower."""
    b_med, b_q1, b_q3 = spread(base)
    n_med, n_q1, n_q3 = spread(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n_med - b_med)  # > 0: the new side is better
    noise = max(b_q3 - b_q1, n_q3 - n_q1)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if all_better or (gain > 0 and gain > noise):
        return "better"
    if all_worse or (gain < 0 and -gain > noise):
        return "worse"
    return "unresolved"


def metric_table(benchmark):
    """{name: (better, bound or None, unit)}."""
    table = {m["name"]: (m["better"], m["bound"], m["unit"]) for m in benchmark["end_to_end"]}
    for m in benchmark["per_layer"]:
        table[m["name"]] = (m["better"], None, m["unit"])
    return table


def side(values):
    med, q1, q3 = spread(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    metrics = metric_table(json.loads(Path(args.benchmark).read_text()))
    base, base_failed = load_set(args.base)
    new, new_failed = load_set(args.new)
    gate_failed = False
    header = (f"{'workload':<16} {'metric':<32} {'base median [q1, q3]':>40} "
              f"{'new median [q1, q3]':>40} {'new/base':>9}  verdict     gate")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if base_failed[key] or new_failed[key]:
            print(f"{workload:<16} cells_failed: base {base_failed[key]}, new {new_failed[key]}")
            gate_failed = gate_failed or new_failed[key] > 0
        for name in sorted(set(base[key]) & set(new[key])):
            better, bound, unit = metrics.get(name, ("lower", None, ""))
            b, n = base[key][name], new[key][name]
            b_med, n_med = spread(b)[0], spread(n)[0]
            ratio = f"{n_med / b_med:9.4f}" if b_med else f"{'-':>9}"
            if unit == "count" and len(set(b)) == 1 and len(set(n)) == 1:
                word = "same count" if b_med == n_med else "count"
            else:
                word = verdict(b, n, better)
            gate = ""
            if bound is not None and trace == 0:
                worse_by = (b_med - n_med) / b_med if better == "higher" else \
                    (n_med - b_med) / b_med
                gate = "FAIL" if worse_by > bound else "ok"
                gate_failed = gate_failed or gate == "FAIL"
            print(f"{workload:<16} {name:<32} {side(b):>40} {side(n):>40} {ratio}  "
                  f"{word:<11} {gate}")
    only = sorted(set(base) ^ set(new))
    for workload, trace in only:
        print(f"{workload:<16} (trace {trace}) present on one side only")
    print(f"base runs: {sum(len(next(iter(v.values()))) for v in base.values())}, "
          f"new runs: {sum(len(next(iter(v.values()))) for v in new.values())}; "
          "ratios are new median / base median")
    return 1 if gate_failed else 0


if __name__ == "__main__":
    sys.exit(main())
