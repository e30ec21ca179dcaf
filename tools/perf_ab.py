#!/usr/bin/env python3
"""A/B runner for the repository's benchmark: alternating parent/change pairs.

    python3 tools/perf_ab.py --parent ../parent --change . \\
        --workload cold_mixed --seed 1 --pairs 10 --ledger BENCH_AB.json

Runs `python3 perfbench/run.py --workload W --seed N --seconds S --trace T`
in two checkouts, PAIRS times each, swapping which side goes first every
pair (the parent goes first in even pairs).  Each run builds its own
checkout under its own .bench_build/, so the two sides share no build.

For every end-to-end metric of BENCHMARK.json (--trace 0), or every
per-layer row (--trace 1, where a run is one pass and only shows where
time moved), it prints each side's median and quartiles and how many
pairs the change won (ties count for neither side); for the end-to-end
metrics, also the verdicts of perfbench/README.md and the
choosing-metrics method:

  gain           the change wins at least 9 in 10 pairs and the gap
                 between the medians exceeds the parent's interquartile
                 range;
  no regression  the change's median is no worse than the parent's by
                 more than the metric's BENCHMARK.json bound; a metric
                 whose parent spread (IQR over median) is wider than the
                 bound is unresolved, unless every run of the change reads
                 better than every run of the parent.

It also checks that every run reports "correct": true and no failed
requests, and that the exact counts of the run record (engine runs,
iterations, simulator accesses, ...) are equal on the two sides.  With
--ledger, the pairs and the summary are appended to a JSON file (created
if missing), one entry per invocation.  Exit status: 0 when every run was
correct and no metric regressed, 1 otherwise, 2 on a usage error.

Only the Python standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def die(msg, code=2):
    print("perf_ab: " + msg, file=sys.stderr)
    sys.exit(code)


def run_side(checkout, workload, seed, seconds, trace):
    """One perfbench run in [checkout]: the JSON result line plus the
    counts of the full run record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.time() - t0
    if out.returncode != 0:
        die("run in %s exited %d:\n%s%s" % (checkout, out.returncode,
                                             out.stdout[-2000:], out.stderr[-2000:]), 1)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = os.path.join(checkout, ".bench_build", "results",
                          "%s-seed%d-trace%d.json" % (workload, seed, trace))
    counts = None
    if os.path.exists(record):
        with open(record) as f:
            counts = json.load(f).get("counts")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "counts": counts,
        "run_s": round(wall, 1),
    }


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, specs, verdicts):
    """Per metric: both sides' quartiles, the change's wins and, for the
    end-to-end metrics ([verdicts]), the verdicts, in BENCHMARK.json
    order."""
    rows = []
    n = len(pairs)
    for spec in specs:
        name = spec["name"]
        lower = spec.get("better", "lower") == "lower"
        par = [p["parent"]["metrics"].get(name) for p in pairs]
        chg = [p["change"]["metrics"].get(name) for p in pairs]
        if any(x is None for x in par + chg):
            continue
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        wins = sum(1 for c, p in zip(chg, par) if better(c, p))
        losses = sum(1 for c, p in zip(chg, par) if better(p, c))
        pq = quartiles(par)
        cq = quartiles(chg)
        iqr = pq[2] - pq[0]
        gap = cq[1] - pq[1]
        rel = gap / pq[1] if pq[1] else 0.0
        row = {
            "metric": name,
            "unit": spec.get("unit", ""),
            "better": "lower" if lower else "higher",
            "parent_q": [round(x, 6) for x in pq],
            "change_q": [round(x, 6) for x in cq],
            "change_wins": wins,
            "change_losses": losses,
            "pairs": n,
            "median_change": round(rel, 4),
            "parent_iqr": round(iqr, 6),
        }
        if not verdicts:
            rows.append(row)
            continue
        improved = better(cq[1], pq[1])
        row["gain"] = bool(improved and wins * 10 >= 9 * n and abs(gap) > iqr)
        bound = spec.get("bound")
        if bound is not None:
            worse = (-rel if not lower else rel)
            all_better = all(better(c, p) for c in chg for p in par)
            spread = iqr / abs(pq[1]) if pq[1] else 0.0
            if worse > bound:
                verdict = "REGRESSION"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            row["bound"] = bound
            row["regression"] = verdict
        rows.append(row)
    return rows


def print_summary(entry):
    print("%s seed %d, %d pair(s), --seconds %d --trace %d" % (
        entry["workload"], entry["seed"], len(entry["pairs"]), entry["seconds"],
        entry["trace"]))
    print("  %-26s %-28s %-28s %7s %8s %10s  %s" % (
        "metric", "parent q1/median/q3", "change q1/median/q3", "wins",
        "median", "parent IQR", "verdict"))
    for r in entry["summary"]:
        fmt = lambda q: "%.4g/%.4g/%.4g" % tuple(q)
        verdict = []
        if r.get("gain"):
            verdict.append("gain holds")
        if "regression" in r:
            verdict.append(r["regression"])
        print("  %-26s %-28s %-28s %3d/%-3d %+7.1f%% %10.4g  %s" % (
            r["metric"], fmt(r["parent_q"]), fmt(r["change_q"]), r["change_wins"],
            r["pairs"], 100 * r["median_change"], r["parent_iqr"],
            ", ".join(verdict) or "-"))
    print("  every run correct, none failed: %s" % entry["all_correct"])
    print("  exact counts equal on both sides: %s" % entry["counts_equal"])


def write_ledger(ledger, path):
    """The ledger as JSON with one line per pair and per summary row, so
    that a diff of two ledgers reads by run."""
    with open(path, "w") as f:
        f.write('{"entries": [\n')
        for i, e in enumerate(ledger["entries"]):
            head = {k: v for k, v in e.items() if k not in ("pairs", "summary")}
            f.write(" {%s,\n" % json.dumps(head)[1:-1])
            f.write('  "pairs": [\n%s],\n' % ",\n".join(
                "   " + json.dumps(p) for p in e["pairs"]))
            f.write('  "summary": [\n%s]}' % ",\n".join(
                "   " + json.dumps(r) for r in e["summary"]))
            f.write(",\n" if i + 1 < len(ledger["entries"]) else "\n")
        f.write("]}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--ledger", help="JSON file the pairs and summary are appended to")
    args = ap.parse_args()
    if args.pairs < 1:
        die("--pairs must be at least 1")
    for side in (args.parent, args.change):
        if not os.path.exists(os.path.join(side, "perfbench", "run.py")):
            die("%s is not a checkout with perfbench/run.py" % side)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %s (one of %s)" % (args.workload, ", ".join(names)))
    seconds = args.seconds or bench.get("run_seconds", 32)
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    pairs = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, args.seed,
                                  seconds, args.trace)
        pairs.append(pair)
        print("pair %d/%d (%s first): %s" % (
            i + 1, args.pairs, order[0], "  ".join(
                "%s %.4g -> %.4g" % (s["name"], pair["parent"]["metrics"].get(s["name"], 0),
                                      pair["change"]["metrics"].get(s["name"], 0))
                for s in specs[:5])), flush=True)

    runs = [p[s] for p in pairs for s in ("parent", "change")]
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "pairs": pairs,
        "summary": summarize(pairs, specs, verdicts=args.trace == 0),
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "counts_equal": len({json.dumps(r["counts"], sort_keys=True) for r in runs}) == 1,
    }
    print_summary(entry)
    if args.ledger:
        ledger = {"entries": []}
        if os.path.exists(args.ledger):
            with open(args.ledger) as f:
                ledger = json.load(f)
        ledger["entries"].append(entry)
        write_ledger(ledger, args.ledger)
    regressed = any(r.get("regression") == "REGRESSION" for r in entry["summary"])
    sys.exit(0 if entry["all_correct"] and not regressed else 1)


if __name__ == "__main__":
    main()
