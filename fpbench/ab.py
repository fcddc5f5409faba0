#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets.

    python3 fpbench/ab.py collect DIR [--workloads W,...] [--seeds 1-10]
                                      [--trace 0|1] [--seconds S] [--variants]
    python3 fpbench/ab.py summary DIR
    python3 fpbench/ab.py compare DIR_A DIR_B

`collect` runs fpbench/run.py once per (workload, seed) and keeps each
run's standard output as DIR/<workload>/trace<T>-seed<N>.txt; with
`--variants` each seed draws its own design variants (a generalization
check for a claimed gain, see README.md). `summary`
prints, per (metric, workload), the median, quartiles and spread (the
interquartile range as a share of the median) next to the metric's
bound in BENCHMARK.json, and the tracing overhead when traced runs are
present. `compare` prints both sets side by side and a verdict per
(metric, workload): `regressed` or `improved` when the medians differ by
more than the bound, `unresolved` when either set's spread is wider than
the bound (unless every run of B is better than every run of A, or
worse), `same` otherwise. Exits 1 when anything regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        os.makedirs(os.path.join(args.dir, w), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            out = os.path.join(args.dir, w, f"trace{args.trace}-seed{seed}.txt")
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            if args.variants:
                cmd.append("--variants")
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            with open(out, "w") as f:
                f.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            print(f"{w} seed {seed} trace {args.trace}: exit {r.returncode} {last[:100]}", flush=True)
            if r.returncode != 0:
                sys.stderr.write(r.stderr)


def host_speed(dirname):
    """{workload: [host kernel median per untraced run]}"""
    out = {}
    for w in sorted(os.listdir(dirname)):
        wdir = os.path.join(dirname, w)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if name.startswith("trace0") and name.endswith(".txt"):
                for line in open(os.path.join(wdir, name)):
                    if "host kernel median" in line:
                        out.setdefault(w, []).append(
                            float(line.split("host kernel median")[1].split()[0]))
    return out


def load(dirname):
    """{(workload, trace): [(result, traced_end_to_end or None)]}"""
    runs = {}
    for w in sorted(os.listdir(dirname)):
        wdir = os.path.join(dirname, w)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if not name.endswith(".txt"):
                continue
            trace = 1 if name.startswith("trace1") else 0
            lines = open(os.path.join(wdir, name)).read().strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            traced = None
            for line in lines:
                if line.startswith("traced-end-to-end: "):
                    traced = json.loads(line[len("traced-end-to-end: "):])
            runs.setdefault((w, trace), []).append((result, traced))
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf")


def fmt(x):
    return f"{x:.5g}"


def summary(args):
    spec = bench_spec()
    runs = load(args.dir)
    print(f"{'workload':14} {'metric':22} {'n':>3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}  check")
    ok = True
    for (w, trace), rs in sorted(runs.items()):
        if trace != 0:
            continue
        results = [r for r, _ in rs]
        bad = [r for r in results if not r["correct"]]
        for m in spec["end_to_end"]:
            xs = values(results, m["name"])
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            sp = spread(xs)
            if sp <= m["bound"] / 3:
                verdict = "ok (< bound/3)"
            elif sp <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "WIDER THAN BOUND"
                ok = False
            print(f"{w:14} {m['name']:22} {len(xs):3} {fmt(q1):>10} {fmt(med):>10} {fmt(q3):>10} "
                  f"{sp:8.4f} {m['bound']:6.3f}  {verdict}")
        if bad:
            ok = False
            print(f"{w:14} {len(bad)} run(s) reported correct=false")
    for w, xs in sorted(host_speed(args.dir).items()):
        q1, med, q3 = quartiles(xs)
        print(f"{w:14} host kernel median {fmt(med)} s [q1 {fmt(q1)}, q3 {fmt(q3)}] over {len(xs)} runs")
    for (w, trace), rs in sorted(runs.items()):
        if trace != 1:
            continue
        untraced = [r for r, _ in runs.get((w, 0), [])]
        traced = [t for _, t in rs if t]
        if not untraced or not traced:
            continue
        print(f"tracing overhead on {w} (traced median - untraced median, {len(traced)} vs "
              f"{len(untraced)} runs):")
        for m in spec["end_to_end"]:
            a = values(untraced, m["name"])
            b = [t[m["name"]]["value"] for t in traced if m["name"] in t]
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                print(f"  {m['name']:22} {fmt(mb - ma):>12} {m['unit']} ({(mb - ma) / ma * 100:+.1f}%)")
    return 0 if ok else 1


def compare(args):
    spec = bench_spec()
    a_runs, b_runs = load(args.a), load(args.b)
    regressed = False
    ha, hb = host_speed(args.a), host_speed(args.b)
    for w in sorted(set(ha) & set(hb)):
        ma, mb = statistics.median(ha[w]), statistics.median(hb[w])
        print(f"{w:14} host kernel median A {fmt(ma)} s, B {fmt(mb)} s ({(mb - ma) / ma * 100:+.1f}%): "
              "time deltas near this size come from the host, not the program")
    print(f"{'workload':14} {'metric':22} {'A median [q1,q3]':>30} {'B median [q1,q3]':>30} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for (w, trace) in sorted(set(a_runs) & set(b_runs)):
        if trace != 0:
            continue
        ra = [r for r, _ in a_runs[(w, 0)]]
        rb = [r for r, _ in b_runs[(w, 0)]]
        for m in spec["end_to_end"]:
            xa, xb = values(ra, m["name"]), values(rb, m["name"])
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            ma, mb = qa[1], qb[1]
            # Badness grows in the metric's worse direction; a positive
            # delta is a move that way.
            sign = 1 if m["better"] == "lower" else -1
            bad_a, bad_b = [sign * x for x in xa], [sign * x for x in xb]
            delta = sign * (mb - ma) / ma
            if max(bad_b) < min(bad_a):
                verdict = "improved (every B run better)"
            elif min(bad_b) > max(bad_a) and delta > m["bound"]:
                verdict = "REGRESSED (every B run worse)"
                regressed = True
            elif max(spread(xa), spread(xb)) > m["bound"]:
                verdict = "unresolved (spread wider than bound)"
            elif delta > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif delta < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "same"
            cell = lambda q: f"{fmt(q[1])} [{fmt(q[0])},{fmt(q[2])}]"
            print(f"{w:14} {m['name']:22} {cell(qa):>30} {cell(qb):>30} {delta * 100:+7.2f}% "
                  f"{m['bound']:6.3f}  {verdict}")
    for (w, trace) in sorted(set(a_runs) & set(b_runs)):
        if trace != 1:
            continue
        ra = [r for r, _ in a_runs[(w, 1)]]
        rb = [r for r, _ in b_runs[(w, 1)]]
        print(f"per-layer medians on {w} (A -> B, no bound):")
        for m in spec["per_layer"]:
            xa, xb = values(ra, m["name"]), values(rb, m["name"])
            if xa and xb:
                print(f"  {m['name']:38} {fmt(statistics.median(xa)):>12} -> "
                      f"{fmt(statistics.median(xb)):>12} {m['unit']}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--variants", action="store_true")
    s = sub.add_parser("summary")
    s.add_argument("dir")
    k = sub.add_parser("compare")
    k.add_argument("a")
    k.add_argument("b")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "summary":
        return summary(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
