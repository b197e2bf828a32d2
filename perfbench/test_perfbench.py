#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary (as run.py does) and checks:
  * traced-kernel parity: on a small scale of every workload, both cells'
    reports and per-job records from the traced kernel are byte-identical
    to Simulation::run(), and the record invariants hold;
  * attribution: layer self times plus the unattributed time sum to the
    traced simulate wall within 5%;
  * the kernel rejects every configuration it does not reproduce;
  * every metric name matches [A-Za-z0-9_.-]+, is unique, and appears in
    BENCHMARK.json with the same unit (and the reverse);
  * compare.py's verdicts on hand-made result sets;
  * run.py exits non-zero without a result line when the simulator sources
    are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402

ROOT = run.ROOT
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


class KernelTests(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run([str(BINARY), "--selftest", "--data-dir",
                               str(ROOT / "data" / "traces")],
                              capture_output=True, text=True, cwd=ROOT, timeout=300)
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        failed = [l for l in lines if l.startswith("FAIL")]
        self.assertEqual(failed, [], proc.stdout)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for workload in run.WORKLOADS:
            for cell in ("bf", "sd"):
                self.assertTrue(any(l.startswith(f"PASS {workload}/{cell} parity") for l in lines))
                self.assertTrue(any(l.startswith(f"PASS {workload}/{cell} attribution")
                                    for l in lines))


class MetricNameTests(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        listed = subprocess.run([str(BINARY), "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split("\n")
        printed = {}
        for line in filter(None, listed):
            kind, name, unit = line.split()
            printed[(kind, name)] = unit
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {(kind, m["name"]): m["unit"]
                    for kind in ("end_to_end", "per_layer") for m in benchmark[kind]}
        self.assertEqual(printed, declared)
        names = [name for _, name in printed]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")


class CompareTests(unittest.TestCase):
    def test_verdicts(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99]
        self.assertEqual(compare.verdict(base, [0.80, 0.81, 0.79, 0.82, 0.80], "lower"),
                         "better")
        self.assertEqual(compare.verdict(base, [1.20, 1.22, 1.19, 1.21, 1.18], "lower"),
                         "worse")
        self.assertEqual(compare.verdict(base, [1.01, 0.99, 1.00, 1.02, 0.98], "lower"),
                         "unresolved")
        self.assertEqual(compare.verdict(base, [1.20, 1.22, 1.19, 1.21, 1.18], "higher"),
                         "better")

    def test_gate_exit_status(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            for side, value in (("base", 1.0), ("new", 2.0)):
                for i in range(3):
                    doc = {"schema": "sdsched-perfbench-v1", "workload": "curie-trace",
                           "trace": 0, "failed": 0,
                           "metrics": {"sd_cell_s": {"value": value + 0.01 * i, "unit": "s"}}}
                    path = Path(tmp) / side / f"run{i}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(doc))
            proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                                   str(Path(tmp) / "base"), str(Path(tmp) / "new")],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertRegex(proc.stdout, r"sd_cell_s .* worse +FAIL")


class StrippedCheckoutTests(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "curie-trace", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180,
                                  env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
