#!/usr/bin/env python3
"""Smoke tests for the CI decision-scaling gate (tools/scaling_gate.py) —
same rationale as test_compare_bench.py: the gate protects every CI run,
so its pass / fail / skip logic must itself be regression-tested (a typo
in the mode filter, for instance, would otherwise silently turn the gate
into a no-op forever)."""

import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import scaling_gate  # noqa: E402


def entry(workers, p50, speedup=0.0, space="tensorflow_cnn", la=2,
          mode="roots+branch"):
    return {"space": space, "la": la, "mode": mode, "workers": workers,
            "p50_ms": p50, "speedup_vs_w1": speedup}


def sentry(workers, dps, speedup=0.0, sessions=64, space="scout_0"):
    return {"space": space, "optimizer": "lynceus_la1", "sessions": sessions,
            "workers": workers, "decisions": 372, "ms_per_decision": 1.0,
            "decisions_per_sec": dps, "speedup_vs_w0": speedup}


def nentry(sessions=64, clients=8, shards=2, dps=836.9, p50=4.0, p99=28.5,
           wire=None):
    out = {"space": "scout_0", "optimizer": "lynceus_la1",
           "sessions": sessions, "clients": clients, "shards": shards,
           "decisions": 372, "ms_per_decision": 1.19,
           "decisions_per_sec": dps, "tell_p50_ms": p50, "tell_p99_ms": p99}
    if wire is not None:  # None mimics a pre-negotiation summary
        out["wire"] = wire
    return out


def passing_decision_curve():
    return [entry(1, 20.0), entry(3, 10.0, speedup=2.0)]


class ScalingGateTest(unittest.TestCase):
    def setUp(self):
        os.environ.pop("GITHUB_STEP_SUMMARY", None)

    def run_main(self, summary, extra_args=()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.json")
            with open(path, "w") as f:
                json.dump(summary, f)
            argv = ["scaling_gate.py", path, *extra_args]
            with mock.patch.object(sys, "argv", argv):
                return scaling_gate.main()

    def test_passes_at_or_above_bar(self):
        entries = [entry(1, 20.0), entry(3, 10.0, speedup=2.0)]
        self.assertEqual(self.run_main({"decision_scaling": entries}), 0)

    def test_fails_below_bar(self):
        entries = [entry(1, 20.0), entry(3, 16.0, speedup=1.25)]
        self.assertEqual(self.run_main({"decision_scaling": entries}), 1)

    def test_custom_bar(self):
        entries = [entry(1, 20.0), entry(3, 16.0, speedup=1.25)]
        self.assertEqual(
            self.run_main({"decision_scaling": entries},
                          ["--min-speedup=1.2"]), 0)

    def test_skips_on_single_worker_runner(self):
        # 1-core dev box shape: only w0/w1 measured, no scaling to judge.
        entries = [entry(0, 20.0), entry(1, 21.0)]
        self.assertEqual(self.run_main({"decision_scaling": entries}), 0)

    def test_fails_when_gated_curve_is_missing(self):
        # Entries exist but none match the gated (space, la, mode): this
        # must be a FAILURE, not a skip — a renamed mode string would
        # otherwise disable the gate silently.
        entries = [entry(3, 10.0, speedup=2.0, mode="roots")]
        self.assertEqual(self.run_main({"decision_scaling": entries}), 1)

    def test_fails_without_section(self):
        self.assertEqual(self.run_main({"decision_scaling": []}), 1)

    def test_other_modes_do_not_satisfy_the_gate(self):
        # A healthy "roots" curve must not mask a missing/broken
        # "roots+branch" curve.
        entries = [entry(1, 20.0, mode="roots"),
                   entry(3, 8.0, speedup=2.5, mode="roots")]
        self.assertEqual(self.run_main({"decision_scaling": entries}), 1)

    def test_missing_speedup_key_is_malformed_not_sub_bar(self):
        # The gated entry exists but never got its ratio computed (e.g. a
        # truncated bench run): must fail with a MALFORMED diagnostic, not
        # masquerade as a genuine "0.00x vs w1" scaling regression.
        top = entry(3, 10.0)
        del top["speedup_vs_w1"]
        entries = [entry(1, 20.0), top]
        messages = []
        rc = scaling_gate.gate(entries, "tensorflow_cnn", 2, "roots+branch",
                               1.5, out=messages.append)
        self.assertEqual(rc, 1)
        self.assertTrue(any("MALFORMED" in m for m in messages), messages)
        self.assertFalse(any("below the bar" in m for m in messages),
                         messages)

    def test_genuine_zero_speedup_is_sub_bar_not_malformed(self):
        # The converse: an explicit sub-bar ratio reports the scaling
        # failure, never the malformed-section diagnostic.
        entries = [entry(1, 20.0), entry(3, 30.0, speedup=0.0)]
        messages = []
        rc = scaling_gate.gate(entries, "tensorflow_cnn", 2, "roots+branch",
                               1.5, out=messages.append)
        self.assertEqual(rc, 1)
        self.assertTrue(any("below the bar" in m for m in messages),
                        messages)
        self.assertFalse(any("MALFORMED" in m for m in messages), messages)

    def test_session_missing_speedup_key_is_malformed_not_sub_bar(self):
        top = sentry(7, 11000.0)
        del top["speedup_vs_w0"]
        sessions = [sentry(0, 3000.0), top]
        messages = []
        rc = scaling_gate.gate_sessions(sessions, 64, 3.0,
                                        out=messages.append)
        self.assertEqual(rc, 1)
        self.assertTrue(any("MALFORMED" in m for m in messages), messages)
        self.assertFalse(any("below the bar" in m for m in messages),
                         messages)

    def test_session_genuine_zero_speedup_is_sub_bar_not_malformed(self):
        sessions = [sentry(0, 3000.0), sentry(7, 2000.0, speedup=0.0)]
        messages = []
        rc = scaling_gate.gate_sessions(sessions, 64, 3.0,
                                        out=messages.append)
        self.assertEqual(rc, 1)
        self.assertTrue(any("below the bar" in m for m in messages),
                        messages)
        self.assertFalse(any("MALFORMED" in m for m in messages), messages)

    def test_session_gate_passes_at_or_above_bar(self):
        sessions = [sentry(0, 3000.0), sentry(1, 2800.0),
                    sentry(7, 11000.0, speedup=3.7)]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}), 0)

    def test_session_gate_fails_below_bar(self):
        sessions = [sentry(0, 3000.0), sentry(1, 2800.0),
                    sentry(7, 6000.0, speedup=2.0)]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}), 1)

    def test_session_gate_custom_bar_and_session_count(self):
        sessions = [sentry(0, 3000.0, sessions=8),
                    sentry(3, 6500.0, speedup=2.1, sessions=8)]
        args = ["--sessions=8", "--session-min-speedup=2.0"]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}, args), 0)

    def test_session_gate_skips_on_single_worker_runner(self):
        # 1-core box shape: the sharded drain only measured at w0/w1.
        sessions = [sentry(0, 3000.0), sentry(1, 2800.0, speedup=0.93)]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}), 0)

    def test_session_gate_fails_when_gated_session_count_is_missing(self):
        # Entries exist but not for the gated session count: failure, not
        # skip — a changed bench config must not disable the gate.
        sessions = [sentry(0, 3000.0, sessions=8),
                    sentry(7, 11000.0, speedup=3.7, sessions=8)]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}), 1)

    def test_missing_session_section_passes_unless_required(self):
        # Backward compat: old summaries without session_scaling still pass
        # by default, but CI passes --require-sessions so a silently
        # dropped bench section is a hard failure there.
        summary = {"decision_scaling": passing_decision_curve()}
        self.assertEqual(self.run_main(summary), 0)
        self.assertEqual(
            self.run_main(summary, ["--require-sessions"]), 1)

    def test_session_failure_not_masked_by_decision_pass(self):
        sessions = [sentry(0, 3000.0), sentry(1, 2800.0),
                    sentry(7, 4000.0, speedup=1.3)]
        self.assertEqual(
            self.run_main({"decision_scaling": passing_decision_curve(),
                           "session_scaling": sessions}), 1)

    def test_net_throughput_rendered_next_to_session_scaling(self):
        # The TCP front-end curve is recorded in the job summary alongside
        # session_scaling (so in-process vs over-the-wire throughput read
        # side by side) but carries no gate of its own here — a weak
        # net number must not fail the scaling job.
        sessions = [sentry(0, 3000.0), sentry(7, 11000.0, speedup=3.7)]
        summary = {"decision_scaling": passing_decision_curve(),
                   "session_scaling": sessions,
                   "net_throughput": [nentry(sessions=8, clients=1,
                                             dps=285.9, p50=1.4, p99=3.5),
                                      nentry()]}
        with tempfile.TemporaryDirectory() as tmp:
            step = os.path.join(tmp, "summary.md")
            with mock.patch.dict(os.environ,
                                 {"GITHUB_STEP_SUMMARY": step}):
                self.assertEqual(self.run_main(summary), 0)
            with open(step) as f:
                text = f.read()
        self.assertIn("net_throughput", text)
        # wire=None (pre-negotiation summary) renders as the json column
        # default.
        self.assertIn("| scout_0 | json | 64 | 8 | 2 | 372 | 837 | 4.000 | "
                      "28.500 |", text)
        # Both tables land in one summary, in-process first; no wire-tax
        # table without a json/binary pair of the same shape.
        self.assertLess(text.index("session_scaling"),
                        text.index("net_throughput"))
        self.assertNotIn("wire tax", text)

    def test_wire_tax_table_pairs_json_and_binary_shapes(self):
        # A shape measured under BOTH encodings gets a wire-tax row with
        # the binary gain; an unpaired shape (binary-only here) does not.
        summary = {"decision_scaling": passing_decision_curve(),
                   "session_scaling": [sentry(0, 3000.0),
                                       sentry(7, 11000.0, speedup=3.7)],
                   "net_throughput": [
                       nentry(wire="json", dps=1000.0, p99=20.0),
                       nentry(wire="binary", dps=1150.0, p99=18.0),
                       nentry(sessions=8, clients=1, wire="binary",
                              dps=1185.0)]}
        with tempfile.TemporaryDirectory() as tmp:
            step = os.path.join(tmp, "summary.md")
            with mock.patch.dict(os.environ,
                                 {"GITHUB_STEP_SUMMARY": step}):
                self.assertEqual(self.run_main(summary), 0)
            with open(step) as f:
                text = f.read()
        self.assertIn("wire tax", text)
        self.assertIn("| scout_0 | 64 | 8 | 2 | 1000 | 1150 | +15.0% | "
                      "20.00 | 18.00 |", text)
        # Unpaired 8-session shape stays out of the wire-tax table (one
        # row only: header, separator, the 64-session pair).
        wire_section = text[text.index("wire tax"):]
        self.assertNotIn("| scout_0 | 8 | 1 |", wire_section)

    def test_wire_tax_table_pairs_old_json_baseline_with_binary(self):
        # Entries without a "wire" field count as json, so a binary run
        # can be compared against a pre-negotiation baseline summary.
        entries = [nentry(dps=837.0, p99=28.5),
                   nentry(wire="binary", dps=1152.0, p99=18.8)]
        table = scaling_gate.render_wire_table(entries)
        self.assertIsNotNone(table)
        self.assertIn("+37.6%", table)
        # All-json sections produce no table at all.
        self.assertIsNone(scaling_gate.render_wire_table(
            [nentry(), nentry(sessions=8, clients=1)]))

    def test_missing_net_section_renders_nothing_and_passes(self):
        summary = {"decision_scaling": passing_decision_curve(),
                   "session_scaling": [sentry(0, 3000.0),
                                       sentry(7, 11000.0, speedup=3.7)]}
        with tempfile.TemporaryDirectory() as tmp:
            step = os.path.join(tmp, "summary.md")
            with mock.patch.dict(os.environ,
                                 {"GITHUB_STEP_SUMMARY": step}):
                self.assertEqual(self.run_main(summary), 0)
            with open(step) as f:
                text = f.read()
        self.assertNotIn("net_throughput", text)

    def test_writes_step_summary_when_requested(self):
        entries = [entry(1, 20.0), entry(3, 10.0, speedup=2.0)]
        with tempfile.TemporaryDirectory() as tmp:
            step = os.path.join(tmp, "summary.md")
            with mock.patch.dict(os.environ,
                                 {"GITHUB_STEP_SUMMARY": step}):
                self.assertEqual(
                    self.run_main({"decision_scaling": entries}), 0)
            with open(step) as f:
                text = f.read()
        self.assertIn("decision_scaling", text)
        self.assertIn("roots+branch", text)


if __name__ == "__main__":
    unittest.main()
