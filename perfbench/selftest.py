"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a plkernel checkout; takes under a minute.  Checks
that every workload, at the tiny size and on two seeds, prints every
metric BENCHMARK.json names with its unit and fails no verdict; that a
planted wrong expectation is counted as failed; that the inputs are a
function of the seed and round; and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class TempDir:
    """A scratch directory inside the checkout's benchmark output."""

    def __enter__(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=run.OUT)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


class TinyRuns(unittest.TestCase):
    def result(self, workload, seed, trace):
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stderr)
        self.assertEqual(res["failed"], 0, proc.stderr)
        self.assertGreaterEqual(res["attempted"], 1)
        return res["metrics"]

    def check_metrics(self, metrics, wanted):
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            for seed in (1, 2):
                with self.subTest(workload=w["name"], seed=seed):
                    metrics = self.result(w["name"], seed, 0)
                    self.check_metrics(metrics, SPEC["end_to_end"])
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(self.result(w["name"], 1, 1), SPEC["per_layer"])


class Oracle(unittest.TestCase):
    def test_planted_wrong_expectation_fails(self):
        with TempDir() as tmp:
            verdicts, _ = workloads.build("reject", 1, 0, "tiny", tmp)
            planted = verdicts[len(verdicts) // 2]
            planted.expected = ("planted", planted.expected)
            _, _, failed, _ = worker.decide_all(verdicts)
        self.assertEqual(failed, [planted.id])

    def test_input_digest_follows_seed(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w), TempDir() as tmp:
                digests = [
                    worker.digest(workloads.build(w, seed, r, "tiny", tmp)[1])
                    for seed, r in ((1, 0), (1, 0), (2, 0), (1, 1))
                ]
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])
                self.assertNotEqual(digests[0], digests[3])


class Refusal(unittest.TestCase):
    def test_refuses_without_sources(self):
        with TempDir() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "reject", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
