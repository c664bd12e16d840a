#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics, one build or
two builds paired.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
    python3 perfbench/spread.py --workload NAME --base BASE_TREE [...]

Runs perfbench/run.py once per seed (trace 0) and prints, per metric,
the median and the interquartile range as a share of the median (the
quartiles of statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. A spread at or above a third of the bound is
flagged; a spread that reaches the bound marks the metric unresolved:
its runs cannot tell a change of that size from noise.

With --base, BASE_TREE is a second source tree holding the benchmark
(for example an export of the base commit with this perfbench/ copied
in; it builds in its own BASE_TREE/.bench_build). For each seed the two
trees run back to back, in alternating order, so a machine whose speed
drifts over minutes moves both sides of a pair alike. Besides each
side's median and spread it prints the median of the per-seed ratios
change/base with their spread, how many pairs the change won, and a
verdict against the bound: unresolved when the base's spread or the
ratios' spread reaches the bound (unless every change run is better
than every base run), otherwise worse or within by the median ratio.
Two trees with the same code should come out within their bounds on
every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(tree, workload, seed, seconds, env):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    name = os.path.basename(os.path.abspath(tree))
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("%s seed %d: run failed (exit %d)" % (name, seed, p.returncode), flush=True)
        return None
    result = json.loads(lines[-1])
    print("%s seed %d: correct=%s %s" % (name, seed, result["correct"], " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
        flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(vals):
    """(median, IQR / median) of `vals`."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--base", help="a second source tree to pair with this one")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sides = [("change", ROOT, dict(os.environ))]
    if args.base:
        base_env = dict(os.environ)
        base_env.pop("CARGO_TARGET_DIR", None)  # the base builds in its own tree
        sides.insert(0, ("base", args.base, base_env))
    values = {name: {side: [] for side, _, _ in sides} for name in specs}
    ratios = {name: [] for name in specs}
    for i, seed in enumerate(seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        got = {side: run(tree, args.workload, seed, seconds, env)
               for side, tree, env in order}
        if any(m is None for m in got.values()):
            continue
        for name in specs:
            for side in got:
                values[name][side].append(got[side][name])
            if args.base and got["base"][name]:
                ratios[name].append(got["change"][name] / got["base"][name])

    print("%-22s %-7s %12s %8s %8s" % ("metric", "side", "median", "iqr/med", "bound"))
    for name, spec in specs.items():
        bound = spec["bound"]
        for side, vals in values[name].items():
            if len(vals) < 2:
                continue
            med, sp = spread(vals)
            flag = ("  <-- unresolved: spread reaches the bound" if sp >= bound else
                    "  <-- over a third of the bound" if sp >= bound / 3 else "")
            print("%-22s %-7s %12.6g %8.3f %8.2f%s" % (name, side, med, sp, bound, flag))
        if len(ratios[name]) >= 2:
            lower = spec["better"] == "lower"
            med, sp = spread(ratios[name])
            worse = med - 1 if lower else 1 - med
            wins = sum(1 for r in ratios[name] if (r < 1 if lower else r > 1))
            base, change = values[name]["base"], values[name]["change"]
            all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
            if sp >= bound or spread(base)[1] >= bound:
                verdict = "better in every run" if all_better else "unresolved"
            else:
                verdict = "WORSE than bound" if worse > bound else "within bound"
            print("%-22s %-7s %12.4f %8.3f %8.2f  change won %d/%d pairs; %s" % (
                name, "ratio", med, sp, bound, wins, len(ratios[name]), verdict))


if __name__ == "__main__":
    main()
