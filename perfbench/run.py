#!/usr/bin/env python3
"""Run one benchmark workload: build, measure, check, report.

    python3 perfbench/run.py --workload cold_mixed --seed 1 --seconds 32 --trace 0

Run from the root of a checkout of the repository.  The script builds the
benchmark runner (perfbench/main.ml) and the fsdetect binary under
.bench_build/, runs the workload, checks that the counts it reports for
this seed repeat exactly across runs, writes the full run record to
.bench_build/results/, prints a readable report and, as the last line,
the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD = ".bench_build"
SOURCES = ["dune-project", "dune", "lib", "bin", "perfbench"]
WORKLOADS = ["cold_mixed", "edit_session", "paper_tables"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the program and benchmark sources: identifies the code a
    result belongs to when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # only a checkout that is itself a git repository: never look upwards
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def ocaml_version():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build():
    root = os.getcwd()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "bench",
           "--build-dir", os.path.join(root, BUILD, "dune"),
           "./perfbench/main.exe", "./bin/fsdetect.exe"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed to run: %s" % e)
    if out.returncode != 0:
        die("build failed:\n" + out.stdout + out.stderr)
    return (os.path.join(BUILD, "dune", "default", "perfbench", "main.exe"),
            os.path.join(BUILD, "dune", "default", "bin", "fsdetect.exe"))


def check_counts(rec, digest):
    """Counts (engine runs, iterations, dependence pairs, simulator
    accesses, cache hits/misses) must repeat exactly for a seed."""
    d = os.path.join(BUILD, "counts")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%s-seed%d-trace%d.json" % (
        rec["workload"], digest, rec["seed"], rec["trace"]))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != rec["counts"]:
            die("counts differ from an earlier run of the same seed and code:\n"
                "  before: %s\n  now:    %s" % (json.dumps(before), json.dumps(rec["counts"])))
    else:
        with open(path, "w") as f:
            json.dump(rec["counts"], f, sort_keys=True)


def report(rec):
    print("workload %s  seed %d  trace %d  passes %s" % (
        rec["workload"], rec["seed"], rec["trace"], rec["notes"].get("passes")))
    for name, m in rec["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    notes = rec["notes"]
    named = [("cpu_tail_ms", "ms"), ("lint_p50_s", "s"), ("lint_tail_s", "s"), ("fix_p50_s", "s"),
             ("explain_p50_s", "s"), ("analyze_p50_s", "s"), ("sym_lint_p50_s", "s"),
             ("edit_p50_ms", "ms"), ("edit_tail_ms", "ms"), ("hit_p50_ms", "ms"),
             ("tables_s", "s")]
    for name, unit in named:
        if name in notes:
            extra = ""
            if name + ".percentile" in notes:
                extra = "  (p%d of %d samples)" % (notes[name + ".percentile"],
                                                   notes[name + ".samples"])
            print("  %-28s %14.6g %s%s" % (name, notes[name], unit, extra))
    print("  %-28s %14.6g ratio  (%d of %d)" % (
        "failed_frac", rec["failed"] / max(1, rec["attempted"]), rec["failed"],
        rec["attempted"]))
    if "claims" in notes:
        print("  paper claims: %d of %d rows hold" % (
            notes["claims_checked"] - notes["claims_failed"], notes["claims_checked"]))
        for c in notes["claims"]:
            if not c["ok"]:
                print("    MISS %s: %s" % (c["check"], c["detail"]))
    for f in rec["failures"][:20]:
        print("  FAILED %s" % f)
    ctx = rec["context"]
    print("  context: " + ", ".join("%s=%s" % kv for kv in sorted(ctx.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    for need in ["dune-project", "lib/service/api.ml", "bin/fsdetect.ml", "perfbench/main.ml"]:
        if not os.path.exists(need):
            die("%s is missing: run from the root of a checkout of the repository" % need, 2)

    main_exe, fsdetect = build()
    digest = source_digest()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [main_exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exe", fsdetect, "--expected", os.path.join("perfbench", "expected.txt")]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "traces", stem + ".json")]
    # The serial workloads run on one CPU, so that the speed calibration
    # the runner takes (perfbench/work.ml) is that of the CPU doing the
    # work: a vCPU's speed varies on its own, apart from the other's.
    # cold_mixed keeps both, for the program's two-domain sweeps.
    pin = cpu = None
    if args.workload in ("edit_session", "paper_tables"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                             preexec_fn=pin)
    except subprocess.TimeoutExpired:
        die("workload %s did not finish within 170 s" % args.workload)
    if out.returncode != 0:
        die("benchmark runner exited %d:\n%s" % (out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    if not lines:
        die("benchmark runner printed nothing:\n" + out.stderr)
    for l in lines[:-1]:
        print(l)
    raw = json.loads(lines[-1])

    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": raw["metrics"],
        "counts": raw["counts"],
        "notes": raw["notes"],
        "failures": raw["failures"],
        "context": {
            "seed": args.seed,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "nproc": len(os.sched_getaffinity(0)),
            "pinned_cpu": cpu,
            "ocaml": ocaml_version(),
            "commit": commit() or "source:" + digest,
            "source_digest": digest,
        },
    }
    if args.trace:
        rec["context"]["trace_overhead_s"] = raw["notes"].get("trace_overhead_s")
    # traced minus untraced end-to-end, when both runs of this seed exist
    other = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, 1 - args.trace))
    if os.path.exists(other):
        with open(other) as f:
            o = json.load(f)
        if o.get("context", {}).get("source_digest") == digest:
            t, u = (rec, o) if args.trace else (o, rec)
            rec["context"]["traced_minus_untraced_pass_cpu_s"] = (
                min(t["notes"]["pass_cpu_s"]) - min(u["notes"]["pass_cpu_s"]))
    check_counts(rec, digest)
    with open(os.path.join(BUILD, "results", stem + ".json"), "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    report(rec)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))


if __name__ == "__main__":
    main()
