#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end tuning-server benchmark.

Runs `perfbench/run.py` of a parent checkout and of a change checkout in N
alternating pairs — pair i runs the parent first when i is even and the
change first when i is odd, so a drift in host speed hits both sides alike
— and summarises every metric of the result lines:

  * the median [Q1, Q3] of each side,
  * the change's relative gap to the parent median,
  * wins: pairs in which the change beat the parent run it was paired with,
  * the verdict: "better" / "worse" when the gap between the medians is
    larger than the parent's interquartile range, else "noise",
  * "OVER BOUND" when the change's median is worse than the parent's by
    more than the metric's bound in the parent's BENCHMARK.json.

Metric directions and bounds come from the parent checkout's
BENCHMARK.json (`end_to_end` and `per_layer`; with `--load` and no
`--parent`, from this script's checkout); metrics it does not list are
summarised without wins or verdict. Every run must report
`"correct": true` and `"failed": 0`.

    python3 tools/perfbench_ab.py --parent ../parent --change . \\
        --workload churn --seed 1 --pairs 10 --seconds 30 \\
        [--trace 0|1] [--save runs.jsonl] [--claim tell_p50_ms]

`--save` appends every result line (with its pair and side) to a JSON-lines
file; `--load FILE` summarises such a file instead of running anything.
`--claim METRIC` makes the exit status check a claimed gain: the change
must win at least 9 of every 10 pairs and its verdict must be "better".

Exit status: 0 when every run was correct (and the claim, if any, holds);
1 otherwise; 2 on usage errors.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values):
    """(Q1, median, Q3) of `values`, inclusive method; a single value is
    its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def load_spec(checkout):
    """{metric: {"better": "lower"|"higher", "bound": float|None}} from a
    checkout's BENCHMARK.json; empty when the file is missing."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        bench = json.load(f)
    spec = {}
    for group in ("per_layer", "end_to_end"):
        for m in bench.get(group, []):
            spec[m["name"]] = {"better": m.get("better"),
                               "bound": m.get("bound")}
    return spec


def is_better(a, b, better):
    """True when value `a` beats `b` in direction `better`."""
    return a < b if better == "lower" else a > b


def summarise_metric(parent, change, better=None, bound=None):
    """Summary of one metric over paired runs; `parent[i]` and `change[i]`
    come from pair i."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    out = {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "rel": (c_med / p_med - 1.0) if p_med != 0 else None,
        "wins": None,
        "verdict": None,
        "over_bound": False,
    }
    if better in ("lower", "higher"):
        out["wins"] = sum(1 for p, c in zip(parent, change)
                          if is_better(c, p, better))
        if abs(c_med - p_med) <= p_q3 - p_q1:
            out["verdict"] = "noise"
        else:
            out["verdict"] = ("better" if is_better(c_med, p_med, better)
                              else "worse")
        if bound is not None and p_med != 0:
            worse_by = ((c_med - p_med) if better == "lower"
                        else (p_med - c_med)) / abs(p_med)
            out["over_bound"] = worse_by > bound
    return out


def summarise(runs, spec):
    """{metric: summary} over `runs` — a list of {"pair", "side", "result"}
    records — using only pairs where both sides reported the metric."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
    names = []
    for r in runs:
        for name in r["result"].get("metrics", {}):
            if name not in names:
                names.append(name)
    out = {}
    for name in names:
        parent, change = [], []
        for i in sorted(pairs):
            sides = pairs[i]
            try:
                p = sides["parent"]["metrics"][name]["value"]
                c = sides["change"]["metrics"][name]["value"]
            except KeyError:
                continue
            parent.append(p)
            change.append(c)
        if parent:
            m = spec.get(name, {})
            out[name] = summarise_metric(parent, change, m.get("better"),
                                         m.get("bound"))
            out[name]["n"] = len(parent)
    return out


def incorrect_runs(runs):
    """Descriptions of runs that were not `correct: true, failed: 0`."""
    bad = []
    for r in runs:
        res = r["result"]
        if res.get("correct") is not True or res.get("failed", 1) != 0:
            bad.append("pair %d %s: correct=%s failed=%s" %
                       (r["pair"], r["side"], res.get("correct"),
                        res.get("failed")))
    return bad


def claim_holds(summary, metric):
    """The claimed-gain rule: wins >= 9/10 of the pairs and a "better"
    verdict (the gap between medians exceeds the parent's IQR)."""
    s = summary.get(metric)
    if s is None or s["wins"] is None:
        return False
    return 10 * s["wins"] >= 9 * s["n"] and s["verdict"] == "better"


def fmt(v):
    return "%.4g" % v


def report(summary, runs):
    n = len({r["pair"] for r in runs})
    print("%d pairs; median [Q1, Q3] per side" % n)
    header = ("metric", "parent", "change", "delta", "wins", "verdict")
    rows = [header]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        rel = "n/a" if s["rel"] is None else "%+.1f%%" % (100 * s["rel"])
        wins = "" if s["wins"] is None else "%d/%d" % (s["wins"], s["n"])
        verdict = s["verdict"] or ""
        if s["over_bound"]:
            verdict += " OVER BOUND"
        rows.append((name, "%s [%s, %s]" % tuple(fmt(x) for x in p),
                     "%s [%s, %s]" % tuple(fmt(x) for x in c), rel, wins,
                     verdict))
    widths = [max(len(r[k]) for r in rows) for k in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def run_once(checkout, args):
    """One perfbench run in `checkout`; returns its parsed JSON result line,
    or a failed stand-in when the run printed none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "failed": None, "metrics": {},
                "error": "no result line (exit %d)" % done.returncode}


def run_pairs(args):
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args)
            record = {"pair": i, "side": side, "result": result}
            runs.append(record)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(record) + "\n")
            print("pair %d %s: %s" % (i, side, json.dumps(
                {k: v["value"] for k, v in result.get("metrics", {}).items()})),
                file=sys.stderr)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", default="churn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append result lines to this file")
    ap.add_argument("--load", help="summarise a --save file instead")
    ap.add_argument("--claim", help="metric whose gain the exit status checks")
    args = ap.parse_args(argv)

    if args.load:
        with open(args.load) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    else:
        if not args.parent or not args.change:
            ap.error("--parent and --change are required unless --load")
        if args.pairs < 1:
            ap.error("--pairs must be >= 1")
        runs = run_pairs(args)
    if not runs:
        print("perfbench_ab: no runs", file=sys.stderr)
        return 1
    # Without --parent (a --load), this script's own checkout supplies the
    # metric directions and bounds.
    spec = load_spec(args.parent or
                     os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    summary = summarise(runs, spec)
    report(summary, runs)
    ok = True
    for line in incorrect_runs(runs):
        print("INCORRECT " + line)
        ok = False
    if args.claim:
        holds = claim_holds(summary, args.claim)
        print("claim %s: %s" % (args.claim, "holds" if holds else "FAILS"))
        ok = ok and holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
