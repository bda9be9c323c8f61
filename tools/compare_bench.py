#!/usr/bin/env python3
"""Perf-regression gate over bench_micro's BENCH_micro.json summaries.

Compares the p50 decision times of a freshly measured summary against the
committed baseline and fails (exit 1) on a regression. Because the baseline
may have been recorded on a different machine than the run under test (a
shared CI runner vs the dev box), absolute ratios are meaningless; the gate
therefore normalizes by the *median* new/baseline ratio across all compared
entries — a uniform machine-speed factor cancels out, and only entries that
regressed relative to the rest of the suite trip the gate.

Rules:
  * an entry fails when its ratio exceeds median_ratio * (1 + threshold)
    (default threshold 15%);
  * entries whose baseline p50 sits below the noise floor (default 1 ms)
    only warn — sub-millisecond timings on shared runners are dominated by
    scheduling noise;
  * sections present in only one file are skipped with a note, so the gate
    survives schema growth;
  * --mode=warn (or BENCH_GATE_MODE=warn) reports without failing.

A before/after table is printed to stdout and, when the GITHUB_STEP_SUMMARY
environment variable is set, appended there as Markdown.

Usage: compare_bench.py --baseline=BENCH_micro.json --new=bench_new.json
                        [--threshold=0.15] [--noise-floor-ms=1.0]
                        [--mode=gate|warn]
"""

import argparse
import json
import os
import statistics
import sys


def load_entries(summary):
    """Flattens a summary into ({key: p50_ms}, [notes]) over every gated
    section. Entries that are structurally meaningless — a pooled decision
    recorded with a 0-worker pool (1-core host, or unknown hardware
    concurrency), which measures pool overhead rather than scaling — are
    skipped outright with a note, not warned about."""
    entries = {}
    notes = []
    for space in summary.get("spaces", []):
        for e in space.get("lookahead", []):
            key = f"{space['space']}/la{e['la']}"
            entries[key] = e["p50_ms"]
    for e in summary.get("multi_constraint", []):
        key = f"mc/{e['space']}/la{e['la']}"
        entries[key] = e["engine_p50_ms"]
    for e in summary.get("incremental_refit", []):
        # Multi-constraint incremental cases carry a "constraints" key; the
        # single-constraint cases predate it and stay on the short key so
        # old baselines keep comparing.
        if "constraints" in e:
            key = f"inc/mc/{e['space']}/c{e['constraints']}/la{e['la']}"
        else:
            key = f"inc/{e['space']}/la{e['la']}"
        entries[key] = e["p50_ms"]
    for e in summary.get("soa_predict", []):
        # Flat-layout (SoA) batch prediction: both the batch route's own
        # p50 and the scalar node-walk reference are gated (a regression
        # in either layout matters), plus the LA=2 decision the batch
        # routes feed.
        entries[f"soa/{e['space']}/batch"] = e["soa_p50_ms"]
        entries[f"soa/{e['space']}/node_walk"] = e["node_walk_p50_ms"]
        # Synthetic-grid entries have no decision dataset, hence no LA=2
        # decision measurement — the key is optional per entry.
        if "decision_la2_p50_ms" in e:
            entries[f"soa/{e['space']}/decision_la2"] = e["decision_la2_p50_ms"]
    for e in summary.get("pooled_decision", []):
        # The worker count is part of the key: a 7-worker baseline p50 and
        # a 3-worker run are different configurations, not a regression —
        # mismatched counts fall into the "only in one file" skip.
        key = f"pooled/{e['space']}/la{e['la']}/w{e.get('workers', 0)}"
        if e.get("workers", 0) == 0:
            notes.append(f"{key} skipped (workers == 0: inline pool, "
                         "no scaling to gate)")
            continue
        entries[key] = e["p50_ms"]
    for e in summary.get("session_throughput", []):
        # TuningService decision throughput: gated on the per-decision
        # latency of the whole multi-session drain (session count and
        # cache sharing mode are part of the key).
        key = (f"svc/{e['space']}/s{e['sessions']}"
               f"/{e.get('cache', 'shared')}")
        entries[key] = e["ms_per_decision"]
    for e in summary.get("decision_scaling", []):
        # Same rules as pooled_decision: the worker count is part of the
        # key (so a 1-core baseline and a multi-core CI run only compare
        # the worker counts both actually measured), and workers == 0 is
        # the inline serial reference — nothing to gate.
        key = (f"scaling/{e['space']}/la{e['la']}/{e.get('mode', 'roots')}"
               f"/w{e.get('workers', 0)}")
        if e.get("workers", 0) == 0:
            notes.append(f"{key} skipped (workers == 0: inline pool, "
                         "no scaling to gate)")
            continue
        entries[key] = e["p50_ms"]
    for e in summary.get("net_throughput", []):
        # Network front-end (loopback TCP) throughput: gated on the
        # per-decision latency of the distributed drain AND the p99 tell
        # round-trip latency (the remote driver's hot path). Session,
        # client and shard counts are all part of the key, and so is the
        # wire encoding — a json baseline and a binary run are different
        # protocols, not a regression. Pre-negotiation summaries carry
        # no "wire" field; those default to json (the only encoding that
        # existed), so old baselines line up with new json entries.
        key = (f"net/{e['space']}/{e.get('wire', 'json')}"
               f"/s{e['sessions']}/c{e['clients']}/sh{e['shards']}")
        entries[f"{key}/decision"] = e["ms_per_decision"]
        entries[f"{key}/tell_p99"] = e["tell_p99_ms"]
    for e in summary.get("session_scaling", []):
        # Inter-session throughput scaling (FIFO loop vs the sharded
        # drain): the shard-thread count is part of the key, and
        # workers == 0 is the single-threaded FIFO reference — skipped
        # here like the other serial references (scaling_gate.py gates
        # the speedup curve itself).
        key = f"sscale/{e['space']}/s{e['sessions']}/w{e.get('workers', 0)}"
        if e.get("workers", 0) == 0:
            notes.append(f"{key} skipped (workers == 0: FIFO loop, "
                         "no scaling to gate)")
            continue
        entries[key] = e["ms_per_decision"]
    return entries, notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--new", dest="new_path", required=True)
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--noise-floor-ms", type=float, default=1.0)
    ap.add_argument("--mode", choices=["gate", "warn"],
                    default=os.environ.get("BENCH_GATE_MODE", "gate"))
    args = ap.parse_args()

    with open(args.baseline) as f:
        base, base_notes = load_entries(json.load(f))
    with open(args.new_path) as f:
        new, new_notes = load_entries(json.load(f))

    common = sorted(set(base) & set(new))
    skipped = sorted(set(base) ^ set(new))
    if not common:
        print("compare_bench: no comparable entries; nothing to gate")
        return 0

    ratios = {k: new[k] / base[k] for k in common if base[k] > 0}
    median_ratio = statistics.median(ratios.values())

    rows = []
    failures = []
    warnings = []
    for k in common:
        ratio = ratios.get(k)
        if ratio is None:
            continue
        rel = ratio / median_ratio - 1.0
        noisy = base[k] < args.noise_floor_ms
        status = "ok"
        if rel > args.threshold:
            if noisy:
                status = "WARN (noise floor)"
                warnings.append(k)
            else:
                status = "FAIL"
                failures.append(k)
        rows.append((k, base[k], new[k], ratio, rel, status))

    lines = [
        f"Perf gate: median machine-speed ratio {median_ratio:.3f}, "
        f"threshold +{args.threshold:.0%} over median, "
        f"noise floor {args.noise_floor_ms} ms",
        "",
        "| benchmark | baseline p50 (ms) | new p50 (ms) | ratio | vs median | status |",
        "|---|---|---|---|---|---|",
    ]
    for k, b, n, ratio, rel, status in rows:
        lines.append(
            f"| {k} | {b:.3f} | {n:.3f} | {ratio:.3f} | {rel:+.1%} | {status} |")
    for k in skipped:
        lines.append(f"| {k} | — | — | — | — | skipped (only in one file) |")
    for note in sorted(set(base_notes + new_notes)):
        lines.append(f"| {note.split(' ', 1)[0]} | — | — | — | — | "
                     f"{note.split(' ', 1)[1]} |")
    report = "\n".join(lines)
    print(report)

    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as f:
            f.write("## bench_micro perf gate\n\n" + report + "\n")

    if failures:
        print(f"\ncompare_bench: {len(failures)} regression(s): "
              + ", ".join(failures))
        if args.mode == "warn":
            print("compare_bench: warn mode — not failing the build")
            return 0
        return 1
    if warnings:
        print(f"\ncompare_bench: {len(warnings)} sub-noise-floor warning(s): "
              + ", ".join(warnings))
    print("compare_bench: no regressions above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
