"""Fast smoke test of the benchmark itself:

    python3 perfbench/smoke.py

It checks that the metric names and units a run prints are the ones
BENCHMARK.json declares, and that each output check fails when its input
is deliberately perturbed. The file name keeps it out of the program's
own pytest run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def last_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_declared_names_match_the_code(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]],
                         list(workloads.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]],
                         list(spans.PER_LAYER))

    def test_printed_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json("desk-mlaan", trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in BENCH[key]})


class ChecksCatchPerturbation(unittest.TestCase):
    """Each check passes on a correct input and fails once it is perturbed."""

    gen = np.random.default_rng(0)

    def assert_catches(self, check, good, bad):
        self.assertIsNone(check(*good))
        self.assertIsNotNone(check(*bad))

    def test_ema(self):
        prev, prime = (self.gen.standard_normal(20).astype(np.float32) for _ in range(2))
        now = checks.ema_expected(prev, prime, 0.99)
        off = now.copy()
        off[3] = np.nextafter(off[3], np.float32(np.inf))
        self.assert_catches(checks.check_ema, ([prev], [now], [prime], 0.99),
                            ([prev], [off], [prime], 0.99))

    def test_accum_counts(self):
        cfg = workloads.desk_mlaan_config(0)
        names = [[f"m{j}.w"] for j in range(1, 9)]
        counts = {f"m{j}.w": 1 + checks.windows_covering(j, 8, 3) for j in range(1, 9)}
        self.assertEqual([counts[f"m{j}.w"] for j in range(1, 9)], [2, 3, 4, 4, 4, 4, 3, 2])
        self.assert_catches(checks.check_accum_counts, (counts, names, cfg),
                            ({**counts, "m4.w": 3}, names, cfg))

    def test_conv_calls(self):
        cfg = workloads.desk_mlaan_config(0)
        self.assertEqual(checks.conv_calls_per_step(cfg), (47, 37))
        self.assertIsNone(checks.check_conv_calls(47, cfg))
        self.assert_catches(checks.check_conv_calls, (84, cfg), (83, cfg))

    def test_bitwise(self):
        live = {"a": self.gen.standard_normal(5).astype(np.float32)}
        flipped = live["a"].copy()
        flipped.view(np.uint32)[2] ^= 1
        self.assert_catches(checks.check_bitwise, ({"a": live["a"].copy()}, live),
                            ({"a": flipped}, live))

    def test_unchanged(self):
        before = {"a": np.arange(4.0)}
        self.assert_catches(checks.check_unchanged, (before, {"a": np.arange(4.0)}),
                            (before, {"a": np.arange(4.0) + 1e-12}))

    def test_loss_falls(self):
        rows = [{"train_loss": 2.3}, {"train_loss": 2.1}]
        self.assert_catches(checks.check_loss_falls, (rows,), (rows[::-1],))

    def test_fd(self):
        auto = self.gen.standard_normal(6)
        kink = np.stack([auto * (1 + 1e-2), auto * (1 + 1e-7)], axis=1)
        self.assert_catches(checks.check_fd, (auto, kink),
                            (auto, np.stack([auto * (1 + 1e-3)] * 2, axis=1)))

    def test_chunking_and_error_rate(self):
        logits = self.gen.standard_normal((10, 3)).astype(np.float32)
        off = logits.copy()
        off[4, 1] += 0.01
        self.assert_catches(checks.check_chunking, (logits, logits.copy()), (logits, off))
        labels = logits.argmax(axis=1)
        self.assert_catches(checks.check_error_rate, (0.0, logits, labels),
                            (0.1, logits, labels))

    def test_main_peak(self):
        self.assert_catches(checks.check_main_peak, (90, 100), (100, 100))

    def test_cka(self):
        from mlaan.analysis import cka_linear
        X = self.gen.standard_normal((40, 8))
        Y = X @ self.gen.standard_normal((8, 8)) + 0.5 * self.gen.standard_normal((40, 8))
        hsic = checks.hsic_cka(X, Y)
        self.assertAlmostEqual(hsic, cka_linear(X, Y), places=10)
        self.assert_catches(checks.check_cross_cka, ([cka_linear(X, Y)], [hsic]),
                            ([cka_linear(X, Y) + 1e-5], [hsic]))
        self.assert_catches(checks.check_self_cka, ([cka_linear(X, X)],), ([1 - 1e-5],))
        rows = [{"layer": j, "value": 0.5} for j in range(1, 4)]
        self.assert_catches(checks.check_probe_rows, (rows, 3), (rows[:2], 3))


if __name__ == "__main__":
    unittest.main()
