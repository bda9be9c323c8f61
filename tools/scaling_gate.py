#!/usr/bin/env python3
"""Scaling recorder + gate over bench_micro's decision_scaling,
session_scaling and net_throughput sections (the CI `scaling` job's
checks).

Renders the measured curves as Markdown tables (stdout and, when
GITHUB_STEP_SUMMARY is set, the job summary) and enforces two bars:

  * decision_scaling: TF-CNN LA=2 branch-parallel decisions (mode
    `roots+branch`) at the runner's maximum measured worker count must
    reach `--min-speedup` (default 1.5x) p50 speedup over the same mode
    at workers=1.
  * session_scaling: decisions/s across `--sessions` (default 64)
    concurrent sessions in the sharded drain at the maximum measured
    thread count (`workers` = draining shard threads; bench_micro
    measures 1 and nproc) must reach `--session-min-speedup` (default 3x)
    over the single-threaded FIFO loop (workers=0).

A net_throughput section (the loopback TCP front-end, src/net/) is
rendered alongside the other tables when present — recorded for the
curve, gated by compare_bench.py in the build matrix rather than here.
When the same shape (space/sessions/clients/shards) was measured under
both wire encodings, a json-vs-binary "wire tax" table is added so the
frame-format savings read directly off the job summary.

Runners whose maximum is below 2 workers cannot measure scaling and pass
with a skip note — a 1-core box records w in {0, 1} only. A missing
session_scaling section is a skip note by default (old baselines) but a
hard failure with --require-sessions, which the CI scaling job passes so
a silently dropped bench section cannot disable the gate.

Usage: scaling_gate.py BENCH_JSON [--min-speedup=1.5]
                       [--space=tensorflow_cnn] [--la=2]
                       [--mode=roots+branch]
                       [--session-min-speedup=3.0] [--sessions=64]
                       [--require-sessions]
"""

import argparse
import json
import os
import sys


def render_table(entries):
    lines = [
        "## decision_scaling (multi-core CI runner)",
        "",
        "| space | la | mode | workers | p50 (ms) | speedup vs w1 |",
        "|---|---|---|---|---|---|",
    ]
    for e in entries:
        speedup = e.get("speedup_vs_w1", 0.0)
        lines.append(
            f"| {e['space']} | {e['la']} | {e['mode']} | {e['workers']} | "
            f"{e['p50_ms']:.3f} | "
            + (f"{speedup:.2f}x |" if speedup else "— |"))
    return "\n".join(lines)


def render_session_table(entries):
    lines = [
        "## session_scaling (multi-core CI runner)",
        "",
        "| space | sessions | workers | decisions | decisions/s | "
        "speedup vs w0 |",
        "|---|---|---|---|---|---|",
    ]
    for e in entries:
        speedup = e.get("speedup_vs_w0", 0.0)
        lines.append(
            f"| {e['space']} | {e['sessions']} | {e['workers']} | "
            f"{e.get('decisions', 0)} | {e['decisions_per_sec']:.0f} | "
            + (f"{speedup:.2f}x |" if speedup else "— |"))
    return "\n".join(lines)


def render_net_table(entries):
    lines = [
        "## net_throughput (loopback TCP front-end)",
        "",
        "| space | wire | sessions | clients | shards | decisions | "
        "decisions/s | tell p50 (ms) | tell p99 (ms) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for e in entries:
        lines.append(
            f"| {e['space']} | {e.get('wire', 'json')} | {e['sessions']} | "
            f"{e['clients']} | {e['shards']} | {e.get('decisions', 0)} | "
            f"{e['decisions_per_sec']:.0f} | {e['tell_p50_ms']:.3f} | "
            f"{e['tell_p99_ms']:.3f} |")
    return "\n".join(lines)


def render_wire_table(entries):
    """Pairs json/binary runs of the same shape: the wire-tax view.

    Returns None when no shape was measured under both encodings (e.g.
    pre-negotiation baselines, which carry no "wire" field at all)."""
    by_shape = {}
    for e in entries:
        shape = (e["space"], e["sessions"], e["clients"], e["shards"])
        by_shape.setdefault(shape, {})[e.get("wire", "json")] = e
    rows = []
    for shape in sorted(by_shape):
        pair = by_shape[shape]
        if "json" not in pair or "binary" not in pair:
            continue
        j, b = pair["json"], pair["binary"]
        space, sessions, clients, shards = shape
        gain = (b["decisions_per_sec"] / j["decisions_per_sec"] - 1.0) * 100.0
        rows.append(
            f"| {space} | {sessions} | {clients} | {shards} | "
            f"{j['decisions_per_sec']:.0f} | {b['decisions_per_sec']:.0f} | "
            f"{gain:+.1f}% | {j['tell_p99_ms']:.2f} | "
            f"{b['tell_p99_ms']:.2f} |")
    if not rows:
        return None
    return "\n".join([
        "## wire tax (json vs binary, same shape)",
        "",
        "| space | sessions | clients | shards | json dec/s | binary dec/s | "
        "binary gain | json tell p99 (ms) | binary tell p99 (ms) |",
        "|---|---|---|---|---|---|---|---|---|",
    ] + rows)


def gate(entries, space, la, mode, min_speedup, out=print):
    """Returns 0 (pass/skip) or 1 (scaling below the bar / no data)."""
    curve = [e for e in entries
             if e["space"] == space and e["la"] == la and e["mode"] == mode]
    if not curve:
        out(f"scaling_gate: no entries for {space}/la{la}/{mode}")
        return 1
    max_w = max(e["workers"] for e in curve)
    if max_w < 2:
        out(f"scaling_gate: runner has max {max_w} pool workers; "
            "gate skipped (scaling needs >= 2)")
        return 0
    top = next(e for e in curve if e["workers"] == max_w)
    if "speedup_vs_w1" not in top:
        # Distinguish a malformed section from a genuine sub-bar speedup:
        # .get(..., 0.0) used to conflate them, reporting "0.00x vs w1"
        # for a bench that never computed the ratio at all.
        out(f"scaling_gate: MALFORMED — entry for {space} la{la} {mode} "
            f"w{max_w} has no speedup_vs_w1 key (bench output truncated "
            "or from an incompatible bench_micro?)")
        return 1
    speedup = top["speedup_vs_w1"]
    out(f"scaling_gate: {space} la{la} {mode} w{max_w}: "
        f"{speedup:.2f}x vs w1 (bar {min_speedup:.2f}x)")
    if speedup < min_speedup:
        out(f"scaling_gate: FAIL — branch-parallel scaling below the bar")
        return 1
    out("scaling_gate: passed")
    return 0


def gate_sessions(entries, sessions, min_speedup, out=print):
    """Gates sharded-drain decisions/s at `sessions` concurrent sessions
    vs the single-threaded FIFO loop. Returns 0 (pass/skip) or 1."""
    curve = [e for e in entries if e["sessions"] == sessions]
    if not curve:
        out(f"scaling_gate: no session_scaling entries for "
            f"sessions={sessions}")
        return 1
    max_w = max(e["workers"] for e in curve)
    if max_w < 2:
        out(f"scaling_gate: runner has max {max_w} session workers; "
            "session gate skipped (scaling needs >= 2)")
        return 0
    top = next(e for e in curve if e["workers"] == max_w)
    if "speedup_vs_w0" not in top:
        out(f"scaling_gate: MALFORMED — session_scaling entry for "
            f"sessions={sessions} w{max_w} has no speedup_vs_w0 key "
            "(bench output truncated or from an incompatible bench_micro?)")
        return 1
    speedup = top["speedup_vs_w0"]
    out(f"scaling_gate: {sessions} sessions w{max_w}: "
        f"{top['decisions_per_sec']:.0f} decisions/s, "
        f"{speedup:.2f}x vs the FIFO loop (bar {min_speedup:.2f}x)")
    if speedup < min_speedup:
        out("scaling_gate: FAIL — session throughput below the bar")
        return 1
    out("scaling_gate: session gate passed")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_json")
    ap.add_argument("--min-speedup", type=float, default=1.5)
    ap.add_argument("--space", default="tensorflow_cnn")
    ap.add_argument("--la", type=int, default=2)
    ap.add_argument("--mode", default="roots+branch")
    ap.add_argument("--session-min-speedup", type=float, default=3.0)
    ap.add_argument("--sessions", type=int, default=64)
    ap.add_argument("--require-sessions", action="store_true",
                    help="fail when the session_scaling section is missing "
                         "(the CI scaling job sets this)")
    args = ap.parse_args()

    with open(args.bench_json) as f:
        summary = json.load(f)
    entries = summary.get("decision_scaling", [])
    if not entries:
        print(f"scaling_gate: {args.bench_json} has no decision_scaling "
              "section")
        return 1

    report = render_table(entries)
    session_entries = summary.get("session_scaling", [])
    if session_entries:
        report += "\n\n" + render_session_table(session_entries)
    # The TCP front-end curve rides along for the record (rendered next to
    # session_scaling so in-process vs over-the-wire throughput read side
    # by side); its regression gate lives in compare_bench.py, not here.
    net_entries = summary.get("net_throughput", [])
    if net_entries:
        report += "\n\n" + render_net_table(net_entries)
        wire_table = render_wire_table(net_entries)
        if wire_table:
            report += "\n\n" + wire_table
    print(report)
    step = os.environ.get("GITHUB_STEP_SUMMARY")
    if step:
        with open(step, "a") as f:
            f.write(report + "\n")

    rc = gate(entries, args.space, args.la, args.mode, args.min_speedup)
    if session_entries:
        rc |= gate_sessions(session_entries, args.sessions,
                            args.session_min_speedup)
    elif args.require_sessions:
        print(f"scaling_gate: {args.bench_json} has no session_scaling "
              "section (required)")
        rc = 1
    else:
        print("scaling_gate: no session_scaling section; session gate "
              "skipped")
    return rc


if __name__ == "__main__":
    sys.exit(main())
