#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (under a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a toy run
(run.py --toy) exits 0 with a correct result that reports exactly the
end-to-end metrics, and a traced toy run exactly the per-layer metrics,
each with its declared unit. It then checks that the correctness gate
fails a run (correct=false, failed > 0, non-zero exit) for each failure
run.py --inject can plant: a wrong discover report, a discover run that
exits non-zero, a wrong response line, and requests never sent. Last it
checks that compare.py refuses result files whose environments differ,
or whose answers for the same seed differ.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--toy", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(name, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s trace %d runs correctly%s" % (name, trace, "" if code == 0 else ": " + err[-300:]))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s trace %d reports every %s metric with its unit%s" % (
                name, trace, key, "" if got == want else ": missing %s, extra %s, unit %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in got if k in want and got[k] != want[k]))))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s trace %d attempts work and fails none" % (name, trace))
        for inject in ("discover-answer", "discover-exit", "serve-answer", "serve-unsent"):
            code, result, _ = run(name, 0, "--inject", inject)
            check(code != 0 and result is not None and not result["correct"]
                  and result["failed"] > 0,
                  "%s: the gate fails a run with injected %s" % (name, inject))

    results = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                           "results")
    base_path = os.path.join(results, "%s-seed3-trace0.json" % bench["workloads"][0]["name"])
    if os.path.exists(base_path):
        with open(base_path) as f:
            base = json.load(f)
        def other_env(r):
            r["env"]["simd_tier"] = "scalar" if r["env"]["simd_tier"] != "scalar" else "avx2"

        def other_answer(r):
            r["answers"]["discover"] = "0" * 64

        for what, alter in (("environments", other_env), ("answers", other_answer)):
            other = copy.deepcopy(base)
            alter(other)
            with tempfile.NamedTemporaryFile("w", suffix=".json", dir=results,
                                             delete=False) as f:
                json.dump(other, f)
            p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), base_path,
                                "--", f.name], cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
            os.unlink(f.name)
            check(p.returncode == 2 and "REFUSED" in p.stderr,
                  "compare.py refuses results with different %s" % what)
    else:
        check(False, "a toy result file exists for the compare.py check")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
