#!/usr/bin/env python3
"""Collect and compare result sets of the end-to-end Remos benchmark.

A result set is a JSON-lines file with one record per run:
    {"workload", "seed", "trace", "pair", "exit", "wall_s", "result"}
where "result" is the benchmark's last stdout line (null if it printed none).

Make sets by running checkouts alternately, the same seed within a pair and
the first side alternating from pair to pair. Every run lasts run_seconds of
this repository's BENCHMARK.json, on both sides:

    python3 bench/e2e/compare.py run --checkout ../parent --out parent.jsonl \\
        --checkout . --out change.jsonl --runs 10 --seed0 100

One --checkout/--out gives a single set; the same checkout twice gives two
sets of one commit (the agreement check in README.md).

Compare two sets against the bounds in BENCHMARK.json:

    python3 bench/e2e/compare.py report parent.jsonl change.jsonl

For every workload and metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (IQR / median) and the change of the
median, then a verdict:
  unresolved  a set's spread exceeds the bound, unless every run of the
              change reads better than every run of the parent;
  REGRESSION  the change's median is worse by more than the bound;
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and its median differs by more than the parent's IQR;
  same        none of the above.
Exits 1 when any run failed or any metric regressed.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text())


def run_one(checkout, workload, seed, trace):
    cmd = ["python3", "bench/e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"exit": proc.returncode, "wall_s": round(wall, 3), "result": result}


def cmd_run(args):
    if len(args.checkout) != len(args.out) or len(args.checkout) not in (1, 2):
        sys.exit("run: give one or two --checkout, each with its --out")
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    outs = [open(o, "a", encoding="utf-8") for o in args.out]
    try:
        for workload in workloads:
            for pair in range(args.runs):
                seed = args.seed0 + pair
                order = list(range(len(args.checkout)))
                if pair % 2 == 1:
                    order.reverse()
                for side in order:
                    rec = {"workload": workload, "seed": seed, "trace": args.trace, "pair": pair}
                    rec.update(run_one(args.checkout[side], workload, seed, args.trace))
                    outs[side].write(json.dumps(rec) + "\n")
                    outs[side].flush()
                    res = rec["result"] or {}
                    print(f"{workload} pair {pair} side {side} seed {seed}: exit {rec['exit']}, "
                          f"correct {res.get('correct')}, {rec['wall_s']} s", file=sys.stderr)
    finally:
        for f in outs:
            f.close()
    return 0


def load_set(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for rs in by_workload.values():
        rs.sort(key=lambda r: r["pair"])
    return by_workload


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def failures(label, runs):
    bad = []
    for r in runs:
        res = r.get("result")
        if r["exit"] != 0 or not res or not res.get("correct") or res.get("failed", 1) != 0:
            bad.append(f"{label} {r['workload']} seed {r['seed']}: exit {r['exit']}, "
                       f"result {'none' if not res else res.get('correct')}")
    return bad


def verdict(parent, change, better, bound):
    """parent/change: per-pair values (same order)."""
    sign = 1.0 if better == "lower" else -1.0
    q1_p, med_p, q3_p = quartiles(parent)
    med_c = quartiles(change)[1]
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else float("inf")
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if bound is not None and (spread(parent) > bound or spread(change) > bound) and not all_better:
        return worse, "unresolved"
    if bound is not None and worse > bound:
        return worse, "REGRESSION"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_c - med_p) > (q3_p - q1_p):
        return worse, "gain"
    return worse, "same"


def cmd_report(args):
    parent, change = load_set(args.parent), load_set(args.change)
    bad = []
    for label, s in (("parent", parent), ("change", change)):
        for runs in s.values():
            bad += failures(label, runs)
    regressions = 0
    for wl in [w["name"] for w in BENCH["workloads"]]:
        if wl not in parent or wl not in change:
            continue
        traced = parent[wl][0].get("trace", 0) == 1
        metrics = BENCH["per_layer"] if traced else BENCH["end_to_end"]
        n = min(len(parent[wl]), len(change[wl]))
        print(f"\n{wl} ({'per-layer, traced' if traced else 'end-to-end'}; {n} pairs)")
        print(f"  {'metric':36} {'unit':>11} {'parent median [q1, q3]':>34} {'spread':>7}  "
              f"{'change median [q1, q3]':>34} {'spread':>7} {'worse':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            p = [r["result"]["metrics"][name]["value"] for r in parent[wl][:n]
                 if r.get("result") and name in r["result"]["metrics"]]
            c = [r["result"]["metrics"][name]["value"] for r in change[wl][:n]
                 if r.get("result") and name in r["result"]["metrics"]]
            if len(p) != n or len(c) != n:
                print(f"  {name:36} missing in {n - len(p)} parent / {n - len(c)} change runs")
                continue
            worse, v = verdict(p, c, m["better"], bound)
            regressions += v == "REGRESSION"
            qp, qc = quartiles(p), quartiles(c)
            print(f"  {name:36} {m['unit']:>11} "
                  f"{qp[1]:12.5g} [{qp[0]:9.5g}, {qp[2]:9.5g}] {spread(p):7.3f}  "
                  f"{qc[1]:12.5g} [{qc[0]:9.5g}, {qc[2]:9.5g}] {spread(c):7.3f} "
                  f"{worse:+8.3f} {'' if bound is None else f'{bound:6.2f}'}  {v}")
    for b in bad:
        print("FAILED RUN:", b)
    return 1 if bad or regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run checkouts alternately into result sets")
    r.add_argument("--checkout", action="append", required=True)
    r.add_argument("--out", action="append", required=True)
    r.add_argument("--workload", action="append")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p = sub.add_parser("report", help="compare two result sets against the bounds")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
