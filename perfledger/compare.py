#!/usr/bin/env python3
"""Noise-aware comparison of benchmark runs.

Parent against change, over the two directories of saved runs that
`collect.py --parent` writes (trace-0 and trace-1 runs may be mixed):

    python3 perfledger/compare.py runs PAIR_DIR/parent PAIR_DIR/change

Runs pair by seed; runs of different lengths are refused. For every
workload x metric it prints each side's median and quartiles, the pairs
the change won, and a verdict. With fewer than ten pairs the verdict is
"unresolved". "better"/"worse" needs the change to win (or lose) at
least 9 of 10 pairs, ties counting for neither, and the medians to
differ by more than the parent's own interquartile distance. Otherwise:
"≈" when the change's median is within the metric's bound of the
parent's, "unresolved" when it is not or when the parent's own spread
exceeds the bound. Per-layer rows get
the min-of-N ± band verdict described under `variants`.

Two variants of one traced run (or of several runs of one workload):

    python3 perfledger/compare.py variants RUN.out [RUN.out ...] [--a dense --b pruned60]

For each layer both variants have, it compares min-of-N self times
against a band: the larger of the two rows' interquartile distances.
Within the band the verdict is "≈"; outside it "faster" or "slower"
with the ratio of the minima. It also prints each variant's summed
layer self time against its untraced call time.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Seed pairs a verdict needs (the §8 rule: at least ten, run alternately).
MIN_PAIRS = 10


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_run(path):
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    if len(lines) < 2:
        return None
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_dir(d):
    runs = []
    for path in sorted(glob.glob(os.path.join(d, "*.out"))):
        run = load_run(path)
        if run is None:
            print(f"skipping {path}: no result", file=sys.stderr)
        else:
            runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """The §8 verdict for one workload x metric (paired by seed)."""
    pairs = [(p, c) for p, c in zip(parent, change)]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    q1p, mp, q3p = quartiles([p for p, _ in pairs])
    _, mc, _ = quartiles([c for _, c in pairs])
    iqr = q3p - q1p
    diff = mc - mp
    n = len(pairs)
    if n < MIN_PAIRS:
        return "unresolved", wins, n
    if wins >= 0.9 * n and diff * sign > 0 and abs(diff) > iqr:
        return "better", wins, n
    if losses >= 0.9 * n and diff * sign < 0 and abs(diff) > iqr:
        return "worse", wins, n
    scale = abs(mp) if mp else 1.0
    if bound is None:
        return ("≈" if abs(diff) <= iqr else "unresolved"), wins, n
    if iqr / scale > bound or abs(diff) / scale > bound:
        return "unresolved", wins, n
    return "≈", wins, n


def band_verdict(min_a, band_a, min_b, band_b):
    """min-of-N ± band: "≈" inside the band, else faster/slower (b vs a)."""
    band = max(band_a, band_b)
    delta = min_b - min_a
    if abs(delta) <= band:
        return "≈"
    return "faster" if delta < 0 else "slower"


def by_seed(runs, trace):
    out = {}
    for detail, result in runs:
        if detail.get("trace") == trace:
            out.setdefault(detail["workload"], {})[detail["seed"]] = (detail, result)
    return out


def fmt(v):
    return f"{v:.6g}"


def cmd_runs(args):
    bench = load_bench()
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_dir(args.parent), load_dir(args.change)
    for trace in (False, True):
        p_runs, c_runs = by_seed(parent, trace), by_seed(change, trace)
        for wl in sorted(set(p_runs) & set(c_runs)):
            seeds = sorted(set(p_runs[wl]) & set(c_runs[wl]))
            if not seeds:
                continue
            lengths = {d.get("seconds") for runs in (p_runs[wl], c_runs[wl])
                       for s, (d, _) in runs.items() if s in seeds}
            if len(lengths) > 1:
                sys.exit(f"{wl}: runs of different lengths ({sorted(lengths)} s) do not pair")
            print(f"\n## {wl} ({'per-layer' if trace else 'end-to-end'}, {len(seeds)} paired seeds)")
            print(f"{'metric':28} {'parent median [q1, q3]':38} {'change median [q1, q3]':38} {'won':>6}  verdict")
            names = list(p_runs[wl][seeds[0]][1]["metrics"])
            for name in names:
                p = [p_runs[wl][s][1]["metrics"][name]["value"] for s in seeds]
                c = [c_runs[wl][s][1]["metrics"].get(name, {}).get("value") for s in seeds]
                if any(v is None for v in p + c):
                    print(f"{name:28} missing on one side")
                    continue
                m = meta.get(name, {"better": "lower"})
                v, wins, n = verdict(p, c, m.get("better", "lower"), m.get("bound"))
                qp, qc = quartiles(p), quartiles(c)
                ps = f"{fmt(qp[1])} [{fmt(qp[0])}, {fmt(qp[2])}]"
                cs = f"{fmt(qc[1])} [{fmt(qc[0])}, {fmt(qc[2])}]"
                print(f"{name:28} {ps:38} {cs:38} {wins:>3}/{n:<2}  {v}")
            if trace:
                print_rows(p_runs[wl], c_runs[wl], seeds)


def rows_of(detail):
    return {r["name"]: r for r in detail.get("rows", [])}


def print_rows(p_runs, c_runs, seeds):
    """Per-layer rows: min-of-N over all runs of a side, with the median
    within-run interquartile distance as the band."""
    names = list(rows_of(p_runs[seeds[0]][0]))
    print(f"\n{'row':36} {'parent min ± band':24} {'change min ± band':24} {'ratio':>7}  verdict")
    for name in names:
        p = [rows_of(p_runs[s][0]).get(name) for s in seeds]
        c = [rows_of(c_runs[s][0]).get(name) for s in seeds]
        if any(r is None for r in p + c):
            continue
        if "min" in p[0]:
            pmin, cmin = min(r["min"] for r in p), min(r["min"] for r in c)
            pband = statistics.median(r["p75"] - r["p25"] for r in p)
            cband = statistics.median(r["p75"] - r["p25"] for r in c)
            v = band_verdict(pmin, pband, cmin, cband)
            ratio = pmin / cmin if cmin else float("inf")
            print(f"{name:36} {fmt(pmin) + ' ± ' + fmt(pband):24} {fmt(cmin) + ' ± ' + fmt(cband):24} {ratio:7.3f}  {v}")
        else:
            pv, cv = [r["value"] for r in p], [r["value"] for r in c]
            v, _, _ = verdict(pv, cv, "higher", None)
            print(f"{name:36} {fmt(statistics.median(pv)):24} {fmt(statistics.median(cv)):24} {'':>7}  {v}")


def cmd_variants(args):
    runs = [r for r in (load_run(p) for p in args.files) if r is not None]
    runs = [r for r in runs if r[0].get("trace")]
    if not runs:
        sys.exit("no traced runs given")
    a, b = args.a, args.b
    print(f"{runs[0][0]['workload']}: {a} vs {b}, {len(runs)} traced run(s)")
    print(f"{'layer':20} {a + ' min ± band':26} {b + ' min ± band':26} {'ratio':>7}  verdict")
    layers = [r["layer"] for r in runs[0][0]["rows"] if r.get("variant") == a and "min" in r]
    for layer in layers:
        ra = [rows_of(d).get(f"cnn.{a}.{layer}.ms") for d, _ in runs]
        rb = [rows_of(d).get(f"cnn.{b}.{layer}.ms") for d, _ in runs]
        if any(r is None for r in ra + rb):
            continue
        amin, bmin = min(r["min"] for r in ra), min(r["min"] for r in rb)
        aband = statistics.median(r["p75"] - r["p25"] for r in ra)
        bband = statistics.median(r["p75"] - r["p25"] for r in rb)
        v = band_verdict(amin, aband, bmin, bband)
        ratio = amin / bmin if bmin else float("inf")
        print(f"{layer:20} {fmt(amin) + ' ± ' + fmt(aband):26} {fmt(bmin) + ' ± ' + fmt(bband):26} {ratio:7.3f}  {v}")
    for detail, result in runs:
        overhead = result["metrics"].get("obs.trace_overhead_pct", {}).get("value")
        for v in detail.get("variants", []):
            if "span_sum_p50_ms" in v:
                gap = 100.0 * (v["span_sum_p50_ms"] / v["untraced_p50_ms"] - 1.0)
                print(f"seed {detail['seed']} {v['variant']}: layer self-time sum {fmt(v['span_sum_p50_ms'])} ms "
                      f"vs untraced call {fmt(v['untraced_p50_ms'])} ms ({gap:+.2f} %; trace overhead {overhead:+.2f} %)")


def main():
    ap = argparse.ArgumentParser(description="Noise-aware comparison of benchmark runs.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs", help="parent vs change over two run directories")
    r.add_argument("parent")
    r.add_argument("change")
    v = sub.add_parser("variants", help="two variants within traced runs")
    v.add_argument("files", nargs="+")
    v.add_argument("--a", default="dense")
    v.add_argument("--b", default="pruned60")
    args = ap.parse_args()
    {"runs": cmd_runs, "variants": cmd_variants}[args.cmd](args)


if __name__ == "__main__":
    main()
