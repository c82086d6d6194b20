"""Determinism self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py      (or python3 perfbench/test_perfbench.py)

For each workload, two traced runs with the same seed must give the same
report digest and the same per-layer call counts, and a run with another
seed must give other inputs (another digest) with no failed operation.
Runs are short (--seconds 1) and each is a fresh interpreter, so process
caches do not carry over between them.  A unit test checks which speed
samples scale each operation.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return detail, json.loads(lines[-1])


def call_counts(detail: dict) -> dict:
    return {k: v for k, v in detail["metrics"].items() if k.endswith("_calls")}


class SpeedFactors(unittest.TestCase):
    def test_factor_uses_samples_during_and_around_each_operation(self):
        sys.path.insert(0, str(HERE))
        import speed

        scaler = speed.Scaler(during_ops=False)
        n = speed.NOMINAL_S
        # Samples at t = 0, 1, 2, 3; operations over [0.5, 0.6] and [1.5, 2.5].
        scaler.samples = [(0.0, n), (1.0, 2 * n), (2.0, 4 * n), (3.0, n)]
        scaler.ops = [(0.5, 0.6), (1.5, 2.5)]
        first, second = scaler.factors()
        self.assertAlmostEqual(first, 1 / 1.5)
        self.assertAlmostEqual(second, 3 / 7)


class Determinism(unittest.TestCase):
    def check(self, workload: str) -> None:
        first, result = bench(workload, 5)
        again, _ = bench(workload, 5)
        other, other_result = bench(workload, 6)
        self.assertTrue(result["correct"])
        self.assertEqual(first["report_sha256"], first["untraced_report_sha256"])
        self.assertEqual(first["report_sha256"], again["report_sha256"])
        self.assertEqual(call_counts(first), call_counts(again))
        self.assertTrue(call_counts(first))
        self.assertNotEqual(first["report_sha256"], other["report_sha256"])
        self.assertTrue(other_result["correct"])
        self.assertEqual(other_result["failed"], 0)
        self.assertEqual(other["metrics"]["checks.rows_red"], 0)

    def test_corpus_sweep(self):
        self.check("corpus_sweep")

    def test_deep_tower(self):
        self.check("deep_tower")

    def test_cli_session(self):
        self.check("cli_session")


if __name__ == "__main__":
    unittest.main()
