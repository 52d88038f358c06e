#!/usr/bin/env python3
"""Run the benchmark over several seeds and save every run's output.

One checkout, for the spread of its figures:

    python3 perfledger/collect.py --out runs/here --seeds 1-10 \
        [--workloads caffenet-b1,serve-replay] [--trace 0|1]

A parent and a change, side by side, for compare.py:

    python3 perfledger/collect.py --out runs/pair --parent ../parent \
        [--change .] --seeds 1-10 [--workloads ...] [--trace 0|1]

Runs from the root of a checkout, one run at a time, each with the
command and the run length (`run_seconds`) in that checkout's
BENCHMARK.json. With --parent, every seed runs on both checkouts back
to back, and which side runs first alternates from seed to seed, so the
two sides of a pair see the same host conditions; each side builds in
its own `.bench_build`, and the two must have the same `run_seconds`.
Each run's stdout lands in <out>/<workload>.trace<T>.seed<S>.out (with
--parent, under <out>/parent and <out>/change); the last line is the
result, the line before it the detail record. Afterwards it prints, per
side, workload and metric, the median, the quartiles and the spread
(interquartile distance over the median, next to the metric's bound),
with quartiles as statistics.quantiles(values, n=4) gives them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_bench(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


class Side:
    """One checkout: where it runs, its benchmark, where its runs go."""

    def __init__(self, label, checkout, out, own_build):
        self.label = label
        self.checkout = os.path.abspath(checkout)
        self.bench = load_bench(checkout)
        self.out = out
        self.env = dict(os.environ)
        if own_build:
            self.env["CARGO_TARGET_DIR"] = os.path.join(self.checkout, ".bench_build")
        self.values = {}
        os.makedirs(out, exist_ok=True)

    def run(self, wl, seed, trace):
        cmd = self.bench["command"] + [
            "--workload", wl, "--seed", str(seed),
            "--seconds", str(self.bench["run_seconds"]), "--trace", trace,
        ]
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=self.checkout, env=self.env,
                              stdout=subprocess.PIPE, text=True)
        wall = time.time() - t0
        with open(os.path.join(self.out, f"{wl}.trace{trace}.seed{seed}.out"), "w") as f:
            f.write(proc.stdout)
        tag = f"{self.label + ' ' if self.label else ''}{wl} seed {seed}"
        if proc.returncode != 0:
            print(f"{tag}: exit {proc.returncode}", file=sys.stderr)
            return
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        flag = "" if result["correct"] and result["failed"] == 0 else "  INCORRECT"
        print(f"{tag}: {wall:.1f} s wall{flag}", file=sys.stderr)
        for name, m in result["metrics"].items():
            self.values.setdefault((wl, name), []).append(m["value"])

    def summary(self):
        bounds = {m["name"]: m.get("bound")
                  for m in self.bench["end_to_end"] + self.bench["per_layer"]}
        for (wl, name), vals in self.values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"{self.label:7}{wl:18} {name:26} median {med:12.6g}  q1 {q1:12.6g}"
                  f"  q3 {q3:12.6g}  spread {s:7.4f}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", help="parent checkout: run it and --change side by side")
    ap.add_argument("--change", default=".", help="change checkout (with --parent)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    if args.parent:
        sides = [Side("parent", args.parent, os.path.join(args.out, "parent"), True),
                 Side("change", args.change, os.path.join(args.out, "change"), True)]
        if sides[0].bench["run_seconds"] != sides[1].bench["run_seconds"]:
            sys.exit("parent and change differ in run_seconds: their runs do not pair")
    else:
        sides = [Side("", ".", args.out, False)]
    workloads = args.workloads or ",".join(w["name"] for w in sides[-1].bench["workloads"])

    for wl in workloads.split(","):
        for k, seed in enumerate(seed_list(args.seeds)):
            # Alternate which side runs first, so neither is always the
            # one after the other's host conditions.
            for side in (sides if k % 2 == 0 else sides[::-1]):
                side.run(wl, seed, args.trace)
    for side in sides:
        side.summary()


if __name__ == "__main__":
    main()
