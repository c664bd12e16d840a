#!/usr/bin/env python3
"""Compares benchmark result files of a base and a changed build.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- CHANGE.json [...]

Result files are the ones perfbench/run.py writes under
$CARGO_TARGET_DIR/results. Files are only compared when they describe
the same environment (CPU model, nproc, compiler, build type,
QIKEY_FORCE_SCALAR, SIMD tier) and the same workload, trace mode and run
length, when runs of the same seed read byte-identical inputs and gave
byte-identical answers (the discover report and every expected response
line), and when every run was correct with no failed operation;
otherwise the comparison is refused with exit code 2. The answer check
is what catches a library defect that the in-run gate cannot: the gate
compares the CLI and the server with the same build's in-process
reference, so a defect in the library changes both alike. For each metric
the medians of both sides are printed with the change's ratio and, for
end-to-end metrics, whether it is worse than BENCHMARK.json's bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "force_scalar",
            "simd_tier")
RUN_KEYS = ("workload", "trace", "seconds", "toy")


def refuse(msg):
    print("REFUSED: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [argv[:split], argv[split + 1:]]
    if not sides[0] or not sides[1]:
        refuse("need at least one result file on each side of --")
    loaded = [[json.load(open(p)) for p in side] for side in sides]
    every = loaded[0] + loaded[1]
    first = every[0]
    for r in every[1:]:
        for key in ENV_KEYS:
            if r["env"].get(key) != first["env"].get(key):
                refuse("environments differ in %s: %r vs %r" % (
                    key, first["env"].get(key), r["env"].get(key)))
        for key in RUN_KEYS:
            if r.get(key) != first.get(key):
                refuse("runs differ in %s: %r vs %r" % (key, first.get(key), r.get(key)))
    inputs, answers = {}, {}
    for r in every:
        if inputs.setdefault(r["seed"], r["inputs"]) != r["inputs"]:
            refuse("seed %d read different inputs on the two sides" % r["seed"])
        if answers.setdefault(r["seed"], r["answers"]) != r["answers"]:
            refuse("seed %d gave different answers on the two sides: %r vs %r"
                   % (r["seed"], answers[r["seed"]], r["answers"]))
    for r in every:
        if not r["correct"] or r["failed"]:
            refuse("%s seed %d: correct=%s with %d failed operation(s); its numbers "
                   "are not evidence" % (r["workload"], r["seed"], r["correct"],
                                         r["failed"]))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print("environment: %s" % json.dumps({k: first["env"][k] for k in ENV_KEYS}))
    print("%-26s %14s %14s %8s  %s" % ("metric", "base median", "change median",
                                      "ratio", "verdict"))
    for name in sorted(first["metrics"]):
        vals = [[r["metrics"][name]["value"] for r in side if name in r["metrics"]]
                for side in loaded]
        if not vals[0] or not vals[1]:
            continue
        base, change = statistics.median(vals[0]), statistics.median(vals[1])
        ratio = change / base if base else float("nan")
        verdict = ""
        m = spec.get(name)
        if m and "bound" in m and base:
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            verdict = "WORSE than bound %.2f" % m["bound"] if worse > m["bound"] else "within bound"
        print("%-26s %14.6g %14.6g %8.3f  %s" % (name, base, change, ratio, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
