#!/usr/bin/env python3
"""Tests for the perfbench A/B tool (tools/perfbench_ab.py) on canned
result lines: the summary statistics, the win count and verdict, the bound
check, the correctness check and the claimed-gain rule that later perf
changes cite. Nothing here runs perfbench."""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_ab  # noqa: E402

SPEC = {"tell_p50_ms": {"better": "lower", "bound": 0.25},
        "decisions_per_s": {"better": "higher", "bound": 0.25}}


def result(p50, dps, correct=True, failed=0):
    """One perfbench result line as run.py prints it."""
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"tell_p50_ms": {"value": p50, "unit": "ms"},
                        "decisions_per_s": {"value": dps, "unit": "1/s"},
                        "peak_rss_mb": {"value": 14.0, "unit": "MB"}}}


def paired(parent, change, **kw):
    """Records for pairs of (p50, dps) tuples, alternating run order."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        if i % 2:
            sides.reverse()
        for side, (p50, dps) in sides:
            runs.append({"pair": i, "side": side,
                         "result": result(p50, dps, **kw)})
    return runs


PARENT = [(2.24, 93), (2.12, 93), (2.41, 92), (2.30, 93), (2.18, 94),
          (2.05, 93), (2.50, 92), (2.22, 93), (2.35, 93), (2.10, 94)]
CHANGE = [(1.37, 93), (1.30, 93), (1.52, 92), (1.40, 93), (1.33, 94),
          (1.29, 93), (1.55, 92), (1.36, 93), (1.45, 93), (1.31, 94)]


class QuartilesTest(unittest.TestCase):
    def test_inclusive_quartiles(self):
        self.assertEqual(perfbench_ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))

    def test_single_run_is_its_own_quartiles(self):
        self.assertEqual(perfbench_ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class SummaryTest(unittest.TestCase):
    def test_clear_gain_wins_every_pair_and_beats_the_iqr(self):
        s = perfbench_ab.summarise(paired(PARENT, CHANGE), SPEC)
        p50 = s["tell_p50_ms"]
        self.assertEqual(p50["n"], 10)
        self.assertEqual(p50["wins"], 10)
        self.assertEqual(p50["verdict"], "better")
        self.assertFalse(p50["over_bound"])
        self.assertLess(p50["rel"], -0.3)
        self.assertTrue(perfbench_ab.claim_holds(s, "tell_p50_ms"))

    def test_unchanged_metric_is_noise_and_no_claim(self):
        s = perfbench_ab.summarise(paired(PARENT, CHANGE), SPEC)
        dps = s["decisions_per_s"]
        self.assertEqual(dps["verdict"], "noise")
        self.assertEqual(dps["wins"], 0)  # ties are not wins
        self.assertFalse(perfbench_ab.claim_holds(s, "decisions_per_s"))

    def test_metric_without_direction_gets_no_verdict(self):
        s = perfbench_ab.summarise(paired(PARENT, CHANGE), SPEC)
        self.assertIsNone(s["peak_rss_mb"]["wins"])
        self.assertIsNone(s["peak_rss_mb"]["verdict"])
        self.assertFalse(perfbench_ab.claim_holds(s, "peak_rss_mb"))

    def test_higher_is_better_direction(self):
        slower = [(p, d * 0.5) for p, d in PARENT]
        s = perfbench_ab.summarise(paired(PARENT, slower), SPEC)
        dps = s["decisions_per_s"]
        self.assertEqual(dps["verdict"], "worse")
        self.assertTrue(dps["over_bound"])  # 50% worse, bound 25%

    def test_regression_inside_the_bound_is_flagged_only_as_worse(self):
        worse = [(p * 1.2, d) for p, d in PARENT]
        s = perfbench_ab.summarise(paired(PARENT, worse), SPEC)
        self.assertEqual(s["tell_p50_ms"]["verdict"], "worse")
        self.assertFalse(s["tell_p50_ms"]["over_bound"])

    def test_eight_of_ten_wins_is_no_claim(self):
        change = list(CHANGE)
        change[3] = (3.0, 93)
        change[6] = (3.1, 92)
        s = perfbench_ab.summarise(paired(PARENT, change), SPEC)
        self.assertEqual(s["tell_p50_ms"]["wins"], 8)
        self.assertFalse(perfbench_ab.claim_holds(s, "tell_p50_ms"))

    def test_gap_inside_the_parent_iqr_is_no_claim(self):
        # Wins every pair, but by less than the parent's spread.
        change = [(p - 0.01, d) for p, d in PARENT]
        s = perfbench_ab.summarise(paired(PARENT, change), SPEC)
        self.assertEqual(s["tell_p50_ms"]["wins"], 10)
        self.assertEqual(s["tell_p50_ms"]["verdict"], "noise")
        self.assertFalse(perfbench_ab.claim_holds(s, "tell_p50_ms"))

    def test_incomplete_pair_is_skipped(self):
        runs = paired(PARENT, CHANGE)
        runs = [r for r in runs if not (r["pair"] == 4 and
                                        r["side"] == "change")]
        s = perfbench_ab.summarise(runs, SPEC)
        self.assertEqual(s["tell_p50_ms"]["n"], 9)


class CorrectnessTest(unittest.TestCase):
    def test_incorrect_and_failed_runs_are_reported(self):
        runs = paired(PARENT[:2], CHANGE[:2])
        runs[1]["result"]["correct"] = False
        runs[2]["result"]["failed"] = 3
        bad = perfbench_ab.incorrect_runs(runs)
        self.assertEqual(len(bad), 2)

    def test_clean_runs_pass(self):
        self.assertEqual(perfbench_ab.incorrect_runs(paired(PARENT, CHANGE)),
                         [])


class MainTest(unittest.TestCase):
    def run_main(self, runs, *extra):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.jsonl")
            with open(path, "w") as f:
                for r in runs:
                    f.write(json.dumps(r) + "\n")
            spec = os.path.join(d, "BENCHMARK.json")
            with open(spec, "w") as f:
                json.dump({"end_to_end": [
                    {"name": k, "better": v["better"], "bound": v["bound"]}
                    for k, v in SPEC.items()]}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = perfbench_ab.main(["--load", path, "--parent", d] +
                                         list(extra))
            return code, out.getvalue()

    def test_claim_holds_exits_zero(self):
        code, out = self.run_main(paired(PARENT, CHANGE),
                                  "--claim", "tell_p50_ms")
        self.assertEqual(code, 0)
        self.assertIn("claim tell_p50_ms: holds", out)
        self.assertIn("10/10", out)
        self.assertIn("better", out)

    def test_failed_claim_exits_one(self):
        code, out = self.run_main(paired(PARENT, PARENT),
                                  "--claim", "tell_p50_ms")
        self.assertEqual(code, 1)
        self.assertIn("FAILS", out)

    def test_incorrect_run_exits_one(self):
        code, out = self.run_main(paired(PARENT, CHANGE, correct=False))
        self.assertEqual(code, 1)
        self.assertIn("INCORRECT", out)

    def test_usage_error_without_checkouts(self):
        with self.assertRaises(SystemExit) as ctx, \
                redirect_stderr(io.StringIO()):
            perfbench_ab.main(["--workload", "churn"])
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
