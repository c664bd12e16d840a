#!/usr/bin/env python3
"""The qikey benchmark: both user paths, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qikey source tree. The first run builds the
program and the qbench probe (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.

Every workload measures both user paths on one generated table:

  discovery  CSV bytes on disk -> verified key, as `qikey discover`;
  serving    a request line on a loopback socket -> its response line,
             against `qikey serve --snapshot-file` of the same table.

Workloads (see WORKLOADS below for sizes, rates and why):

  adult-hot   1M-row adult table; tuple backend; a hot request mix whose
              working set fits the verdict cache, with a SIGHUP re-map
              (new epoch, emptied cache) every second of the light phase.
  wide-miss   100k x 128 grid table; bitset backend; unique is-key sets
              that never hit the cache, plus 2% slow `separation`s.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a separate traced run.
Every discover report and every served response line is checked against
the in-process reference (qbench). A mismatch, a discover run whose exit
code is not the one the reference verdict implies, and a request outside
the capacity search that is shed, times out or is never sent all make
the result `correct: false` and the exit code 1. Each run also writes a self-describing result file under
$CARGO_TARGET_DIR/results (environment, input and answer hashes,
phases); compare result files with perfbench/compare.py.

The same --seed gives byte-identical CSVs, snapshots, request lines and
arrival schedules; their SHA-256 hashes are printed. The rates were
tuned on seeds 1-35; check claims on seeds 101-110 as well.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Client connections: one client thread; qbench load allows at most 4.
CONNS = 4
# Serve start-ups per run; setup_s is their median.
SETUP_SPAWNS = 11
# Latency metrics are medians of per-window percentiles: measured
# phases are split into windows of the workload's `window_s`, capacity
# probes into PROBE_WINDOWS: five, so that one stall of a shared machine
# (10 ms or more, seen every few seconds even at half the capacity) spoils
# one window and not the probe.
PROBE_WINDOWS = 5
# A phase stops sending once a connection has this many requests in
# flight: the server is not keeping up. This keeps every connection below
# the server's 256-line per-connection admission cap, past which a line
# is shed with an `err overload` that, as documented in serve/server.h,
# may be answered ahead of earlier lines, so responses would no longer
# pair with requests in send order.
ABORT_CONN_INFLIGHT = 200
# The light phase is measured this many times, each on new connections.
LIGHT_REPEATS = 3
# Capacity grid: offered rates grow by this factor per step.
GRID_STEP = 1.05
# During serving, the load client runs on the last CPU and the server
# on the others, so neither preempts the other; with one CPU both share
# it.
CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = {CPUS[-1]}
SERVER_CPUS = set(CPUS[:-1]) or set(CPUS)

WORKLOADS = {
    # discover-adult-1m + serve-hot: ingest-bound discovery; cache-resident
    # serving, where the reactor, queue and dedupe hops dominate.
    "adult-hot": {
        "gen": ["adult", "--rows", "1000000"],
        "toy_gen": ["adult", "--rows", "20000"],
        "discover": ["--eps", "0.001", "--backend", "tuple", "--threads", "4"],
        "serve_threads": 2,
        "mix": "hot",
        "sighup": True,
        # Fixed rates (requests/s) and the p99 limit for capacity_rps.
        "light_rps": 2000, "heavy_rps": 14000, "limit_us": 10000,
        "grid_base_rps": 8000, "grid_top_rps": 100000, "probe_s": 2.0,
        "window_s": 1.0,
        "toy": {"light_rps": 500, "heavy_rps": 2000, "probe_s": 0.3,
                "grid_base_rps": 4000, "grid_top_rps": 5000, "window_s": 0.1},
    },
    # discover-wide-bitset + serve-wide-miss: filter-build-bound discovery;
    # cache-missing serving, where the evidence kernel dominates.
    "wide-miss": {
        "gen": ["grid", "--rows", "100000", "--m", "128", "--q", "4"],
        "toy_gen": ["grid", "--rows", "5000", "--m", "32", "--q", "4"],
        "discover": ["--eps", "0.0001", "--backend", "bitset", "--threads", "4"],
        "toy_discover": ["--eps", "0.001", "--backend", "bitset", "--threads", "4"],
        "serve_threads": 2,
        "mix": "miss",
        "sighup": False,
        # The p99 limit sits above the gently rising p99 of a working server
        # (40-130 ms up to about 1.9k req/s, set by 2% separations blocking
        # their connection) and below the 250-400 ms of a collapsing one, so
        # capacity is where the server stops keeping up, not where a noisy
        # p99 first crosses a line.
        "light_rps": 450, "heavy_rps": 600, "limit_us": 250000,
        "grid_base_rps": 400, "grid_top_rps": 4000, "probe_s": 2.0,
        "window_s": 2.0,
        "toy": {"light_rps": 200, "heavy_rps": 400, "probe_s": 0.3,
                "grid_top_rps": 500, "window_s": 0.1},
    },
}

def log(msg):
    print(msg, flush=True)


# Servers still running; stopped on the way out, however the run ends.
LIVE_SERVERS = []


def fail(msg, code=2):
    """Ends the run without a result line."""
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def median(values):
    """Median, or 0.0 when nothing was measured (only in a run that is not
    correct, whose numbers are not evidence)."""
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))] if v else 0.0


# ---------------------------------------------------------------------------
# Build and environment


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no qikey source tree at %s (need CMakeLists.txt and src/)" % ROOT)
    cm = os.path.join(build_root(), "cmake")
    os.makedirs(cm, exist_ok=True)
    logpath = os.path.join(build_root(), "build.log")
    with open(logpath, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(cm, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cm,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cm, "-j", str(os.cpu_count() or 1),
                      "--target", "qbench", "qikey_cli", "qikey_gen"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return {
        "qbench": os.path.join(cm, "qbench"),
        "qikey": os.path.join(cm, "qikey", "tools", "qikey"),
        "gen": os.path.join(cm, "qikey", "tools", "qikey_gen"),
    }


def probe(bins, *args, cpus=None):
    """Runs a qbench subcommand (on `cpus`, if given); returns its QBENCH
    json."""
    p = subprocess.run([bins["qbench"]] + [str(a) for a in args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT,
                       preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
    if p.returncode != 0:
        fail("qbench %s failed: %s" % (args[0], p.stderr.strip()))
    last = p.stdout.strip().splitlines()[-1]
    if not last.startswith("QBENCH "):
        fail("qbench %s printed no result" % args[0])
    return json.loads(last[len("QBENCH "):])


def source_hash():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(bins):
    env = probe(bins, "env")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    env["cpu_model"] = cpu
    env["nproc"] = len(os.sched_getaffinity(0))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip()
    except OSError:
        sha = ""
    env["git_sha"] = sha or "none (not a git checkout)"
    env["source_sha256"] = source_hash()
    return env


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(bins, wl, args, work):
    """Generates the CSV and its snapshot from the seed; returns paths."""
    gen = wl["toy_gen"] if args.toy else wl["gen"]
    dflags = (wl.get("toy_discover") if args.toy else None) or wl["discover"]
    csv = os.path.join(work, "table.csv")
    snap = os.path.join(work, "table.qsnp")
    subprocess.run([bins["gen"]] + gen + ["--out", csv, "--seed", str(args.seed)],
                   check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    t0 = time.perf_counter()
    p = subprocess.run([bins["qikey"], "snapshot", "save", csv, "--out", snap,
                        "--seed", str(args.seed)] + dflags,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT)
    if p.returncode != 0:
        fail("snapshot save failed: " + p.stderr.strip())
    return csv, snap, dflags, time.perf_counter() - t0


def request_pool(mix, names, seed, work):
    """Writes the distinct request lines and the send order for `mix`."""
    rng = random.Random("requests-%d" % seed)
    lines, seen = [], set()

    def add(line):
        if line not in seen:
            seen.add(line)
            lines.append(line)
            return True
        return False

    if mix == "hot":
        # A few hundred distinct lines, 60% is-key / 20% min-key / 20%
        # separation by request: the 4096-entry cache holds them all.
        by_kind = {"is-key": [], "min-key": [], "separation": []}
        add("min-key")
        by_kind["min-key"].append(0)
        for kind, want, top in (("is-key", 200, 4), ("separation", 100, 3)):
            while len(by_kind[kind]) < want:
                attrs = rng.sample(names, rng.randint(1, top))
                if add("%s %s" % (kind, ",".join(attrs))):
                    by_kind[kind].append(len(lines) - 1)
        seq = []
        for _ in range(20000):
            r = rng.random()
            kind = "is-key" if r < 0.6 else "min-key" if r < 0.8 else "separation"
            seq.append(rng.choice(by_kind[kind]))
    else:
        # Unique is-key sets of 4-32 attributes and every 50th line a
        # separation (2%, evenly spaced so every phase carries the same
        # share), sent in order and cycled: 8192 lines over a 4096-entry
        # LRU never hit.
        while len(lines) < 8192:
            kind = "separation" if len(lines) % 50 == 25 else "is-key"
            attrs = sorted(rng.sample(range(len(names)),
                                      rng.randint(4, min(32, len(names)))))
            add("%s %s" % (kind, ",".join(names[a] for a in attrs)))
        seq = list(range(len(lines)))
    pool = os.path.join(work, "pool.txt")
    order = os.path.join(work, "seq.txt")
    with open(pool, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(order, "w") as f:
        f.write("\n".join(map(str, seq)) + "\n")
    return pool, order


def warm_page_cache(path):
    with open(path, "rb") as f:
        while f.read(1 << 22):
            pass


# ---------------------------------------------------------------------------
# Discovery path


def strip_timing(report):
    """A discover report minus its stage-timing line (the only line that
    differs between two runs on the same input and seed)."""
    return "".join(l for l in report.splitlines(True)
                   if not l.startswith("  stages:"))


def run_cli(cmd):
    """Runs cmd; returns (wall_s, stdout, exit code, rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         cwd=ROOT)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, out.decode(), p.returncode, usage


class Discovery:
    def __init__(self, bins, csv, dflags, seed, inject, work):
        self.bins = bins
        # "discover-exit" points the CLI at a missing file, so it exits 1.
        self.cmd = [bins["qikey"], "discover",
                    csv + ".missing" if inject == "discover-exit" else csv,
                    "--seed", str(seed)] + dflags
        report = os.path.join(work, "reference.txt")
        ref = probe(bins, "discover", csv, *dflags, "--seed", seed, "--layers", 0,
                    "--report", report)
        # `qikey discover` exits 3 when verification rejects the emitted
        # key: a correct answer of the randomized search (its verify step
        # caught a sampled pair the key does not separate), and on some
        # seeds the reference gives it too.
        self.expected_code = 0 if ref["verdict"] == "ACCEPT" else 3
        with open(report) as f:
            self.expected = strip_timing(f.read())
        self.answer_sha256 = hashlib.sha256(self.expected.encode()).hexdigest()
        if inject == "discover-answer":
            self.expected = self.expected.replace("  key:", "  key: (injected)")
        self.csv, self.dflags, self.seed = csv, dflags, seed
        self.walls, self.rss_mb, self.cpu_s = [], [], []
        self.attempted = self.failed = 0
        self.first_wrong = ""

    def once(self, record=True):
        """One CLI run. Every run, the warm-up too, must print the reference
        report and exit with the code its verdict implies; a run that does
        not is a failure, and its wall time, RSS and CPU time are not
        recorded."""
        wall, out, code, usage = run_cli(self.cmd)
        self.attempted += 1
        if code != self.expected_code or strip_timing(out) != self.expected:
            self.failed += 1
            self.first_wrong = self.first_wrong or "exit %d: %s" % (code, out)
        elif record:
            self.walls.append(wall)
            self.rss_mb.append(usage.ru_maxrss / 1024.0)
            self.cpu_s.append(usage.ru_utime + usage.ru_stime)
        return wall

    def measure(self, seconds, min_runs=3, layers=False):
        """CLI runs until `seconds` have passed (at least `min_runs`). With
        `layers`, each CLI run is followed by a qbench --layers run, so the
        traced layer times and the CLI wall they must add up to are taken
        under the same machine conditions; returns the median layer times."""
        t_end = time.perf_counter() + seconds
        runs = []
        done = 0
        while done < min_runs or time.perf_counter() < t_end:
            self.once()
            done += 1
            if layers:
                runs.append(probe(self.bins, "discover", self.csv, *self.dflags,
                                  "--seed", self.seed, "--layers", 1,
                                  "--report", os.devnull))
        if not runs:
            return {}
        keys = [k for k, v in runs[0].items() if isinstance(v, (int, float))]
        return {k: statistics.median(r[k] for r in runs) for k in keys}


# ---------------------------------------------------------------------------
# Serving path


def proc_status(pid, key):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    return 0.0


class Server:
    """One `qikey serve --snapshot-file` process on an ephemeral port."""

    def __init__(self, bins, snap, threads, trace_sample=0):
        cmd = [bins["qikey"], "serve", "--snapshot-file", snap,
               "--listen", "127.0.0.1:0", "--threads", str(threads)]
        if trace_sample:
            cmd += ["--trace-sample", str(trace_sample)]
        self.stdout, self.stderr = [], []
        ready = queue.Queue()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                     preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))

        def pump(stream, sink, announce):
            for line in stream:
                sink.append(line.rstrip("\n"))
                if announce and line.startswith("listening on"):
                    ready.put(line)
            if announce:
                ready.put(None)

        self.readers = [
            threading.Thread(target=pump, args=(self.proc.stdout, self.stdout, True),
                             daemon=True),
            threading.Thread(target=pump, args=(self.proc.stderr, self.stderr, False),
                             daemon=True),
        ]
        for r in self.readers:
            r.start()
        LIVE_SERVERS.append(self)
        try:
            line = ready.get(timeout=120)
        except queue.Empty:
            line = None
        self.setup_s = time.perf_counter() - t0
        if line is None:
            self.stop()
            fail("server did not start: " + " | ".join(self.stderr[-5:]))
        self.port = int(line.strip().rsplit(":", 1)[1])

    def status(self, key):
        return proc_status(self.proc.pid, key)

    def stats(self):
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            f = s.makefile("rw")
            f.readline()
            f.write("stats\n")
            f.flush()
            line = f.readline()
        if not line.startswith("ok "):
            fail("stats verb failed: " + line)
        return json.loads(line[3:])

    def reloads(self):
        return sum(1 for l in self.stdout if l.startswith("reloaded:"))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for r in self.readers:
            r.join()
        if self in LIVE_SERVERS:
            LIVE_SERVERS.remove(self)
        return self.proc.returncode


class Sighup:
    """While active, sends SIGHUP at every_s * (i + 1/2) after entry: each
    re-maps the same snapshot file, publishes a new epoch and empties the
    verdict cache. Tying the signals to the phase start gives every phase
    of one length the same number of epoch changes."""

    def __init__(self, proc, every_s):
        self.proc, self.every_s = proc, every_s
        self.stop_event = threading.Event()
        self.thread = None

    def __enter__(self):
        if self.every_s > 0:
            self.thread = threading.Thread(target=self.loop)
            self.thread.start()
        return self

    def loop(self):
        wait = 0.5 * self.every_s
        while not self.stop_event.wait(wait):
            self.proc.send_signal(signal.SIGHUP)
            wait = self.every_s

    def __exit__(self, *exc):
        self.stop_event.set()
        if self.thread:
            self.thread.join()


class Loader:
    """Runs qbench load phases; continues through the request order."""

    def __init__(self, bins, pool, expect, seq, limit_us, sighup, seed, window_s,
                 abort_conn_inflight):
        self.bins, self.pool, self.expect, self.seq = bins, pool, expect, seq
        self.abort_conn_inflight = abort_conn_inflight
        self.seed = seed
        self.phases_run = 0
        self.limit_us = limit_us
        self.sighup = sighup
        self.window_s = window_s
        self.offset = 0
        self.wrong = 0
        self.first_wrong = ""
        # Requests of every phase but the capacity probes, and how many of
        # them were not answered correctly. A probe may fail (that is how
        # the search finds the capacity), any other phase must not.
        self.attempted = self.failed = 0

    def phase(self, server, rate, seconds, sighup_every_s=0, windows=1,
              capacity_probe=False):
        count = max(1, int(rate * seconds))
        # Each phase's Poisson schedule is a function of the run's seed.
        self.phases_run += 1
        schedule_seed = self.seed * 1000 + self.phases_run
        with Sighup(server.proc, sighup_every_s):
            r = probe(self.bins, "load", "--port", server.port, "--pool", self.pool,
                      "--expect", self.expect, "--seq", self.seq, "--rate", rate,
                      "--count", count, "--conns", CONNS, "--offset", self.offset,
                      "--seed", schedule_seed, "--limit-us", self.limit_us,
                      "--windows", windows, "--abort-conn-inflight", self.abort_conn_inflight,
                      cpus=CLIENT_CPUS)
        r["schedule_seed"] = schedule_seed
        # Medians over the phase's windows: one transient stall (a noisy
        # neighbour, a page-fault burst) moves one window, not the result.
        for q in ("p50", "p99"):
            vals = [float(v) for v in r["window_%s_us" % q].split(",")]
            r["%s_med_us" % q] = statistics.median(vals)
        self.offset += count
        self.wrong += int(r["wrong"] + r["unexpected"])
        if r["first_wrong"] and not self.first_wrong:
            self.first_wrong = r["first_wrong"]
        r["rate"] = rate
        # Every request not answered correctly: shed, timed out, wrong, or
        # never sent because the phase stopped at ABORT_CONN_INFLIGHT.
        r["failed"] = int(r["count"] - r["ok"])
        if not capacity_probe:
            self.attempted += int(r["count"])
            self.failed += r["failed"]
        # The generator fell behind its schedule when its typical (median)
        # lateness is a material part of the latency it reports; such a
        # phase is not evidence. Sporadic stalls of the client's CPU show
        # in its p99 lateness (gen.lag_p99_us) without invalidating it.
        r["generator_late"] = r["late_p50_us"] > max(100.0, 0.1 * r["p50_us"])
        return r

    def measured_phase(self, server, rate, seconds, sighup=False):
        """A phase split into windows of `window_s`; with `sighup` (and a
        workload that reloads), one epoch change in every window."""
        windows = max(1, round(seconds / self.window_s))
        every = seconds / windows if sighup and self.sighup else 0
        r = self.phase(server, rate, seconds, windows=windows, sighup_every_s=every)
        if r["generator_late"]:
            log("generator fell behind at %g req/s (median lateness %.0f us); retrying"
                % (rate, r["late_p50_us"]))
            r = self.phase(server, rate, seconds, windows=windows, sighup_every_s=every)
            if r["generator_late"]:
                fail("run invalid: the load generator fell behind its schedule "
                     "(median lateness %.0f us at %g req/s)" % (r["late_p50_us"], rate), 3)
        return r

    def passes(self, r):
        return (r["failed"] == 0 and not r["backlog_grew"]
                and not r["generator_late"] and r["p99_med_us"] <= self.limit_us)

    def capacity(self, server, base_rps, top_rps, probe_s):
        """Highest rate on the grid base * GRID_STEP^k (up to top_rps) that
        meets the limit with no failures and no growing backlog in two
        probes in a row, found by binary search. Above the sustainable rate
        the server is metastable: a stall tips it into a backlog it does
        not drain, and over a band of rates 10-40% wide a single probe
        passes by luck about one time in three. Two passes in a row put the
        edge where passing stops being luck."""
        rate = lambda k: base_rps * GRID_STEP ** k
        lo, hi = -1, int(math.log(top_rps / base_rps, GRID_STEP)) + 1
        probes = []

        def passes(k):
            for _ in range(2):
                r = self.phase(server, rate(k), probe_s, windows=PROBE_WINDOWS,
                               capacity_probe=True)
                probes.append(r)
                if not self.passes(r):
                    return False
            return True

        while hi - lo > 1:  # invariant: lo passes (or is -1), hi fails
            mid = (lo + hi) // 2
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return (rate(lo) if lo >= 0 else 0.0), probes


# ---------------------------------------------------------------------------
# The run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs and rates (perfbench/selftest.py)")
    ap.add_argument("--inject", choices=("discover-answer", "discover-exit",
                                          "serve-answer", "serve-unsent"),
                    help="gate self-test: corrupt the expected discover report, make "
                         "discover exit 1, corrupt one expected response line, or "
                         "stop every load phase after its first request")
    args = ap.parse_args()
    wl = dict(WORKLOADS[args.workload])
    if args.toy:
        wl.update(wl["toy"])

    bins = build()
    env = environment(bins)
    work = os.path.join(build_root(), "work", args.workload)
    os.makedirs(work, exist_ok=True)

    t_setup = time.perf_counter()
    csv, snap, dflags, save_s = make_inputs(bins, wl, args, work)
    with open(csv) as f:
        names = f.readline().strip().split(",")
    pool, seq = request_pool(wl["mix"], names, args.seed, work)
    expect = os.path.join(work, "expect.txt")
    expect_info = probe(bins, "expect", snap, pool, expect)
    answers = {"serve": sha256(expect)}
    if args.inject == "serve-answer":
        with open(seq) as f:
            first = int(f.readline())
        with open(expect) as f:
            lines = f.read().splitlines()
        lines[first] = "ok injected-wrong-answer"
        with open(expect, "w") as f:
            f.write("\n".join(lines) + "\n")
    hashes = {"csv": sha256(csv), "snapshot": sha256(snap),
              "requests": sha256(pool), "schedule": sha256(seq)}
    log("env: " + json.dumps(env, sort_keys=True))
    log("inputs (seed %d): %s" % (args.seed, json.dumps(hashes, sort_keys=True)))
    for path in (csv, snap):
        warm_page_cache(path)

    disc = Discovery(bins, csv, dflags, args.seed, args.inject, work)
    # Hashes of the reference answers (before any injected corruption):
    # compare.py refuses two builds that answer the same seed differently.
    answers["discover"] = disc.answer_sha256
    log("answers (seed %d): %s" % (args.seed, json.dumps(answers, sort_keys=True)))
    discover_warmup_s = disc.once(record=False)
    loader = Loader(bins, pool, expect, seq, wl["limit_us"], wl["sighup"], args.seed,
                    wl["window_s"], 1 if args.inject == "serve-unsent" else ABORT_CONN_INFLIGHT)
    threads = wl["serve_threads"]
    log("setup: %.1f s (inputs, reference, warm-up)" % (time.perf_counter() - t_setup))

    metrics, info = {}, {"save_s": save_s, "discover_warmup_s": discover_warmup_s,
                         "expect": expect_info, "discover_walls": disc.walls}
    budget = args.seconds
    phases = {}
    if args.trace == 0:
        disc.measure(0.25 * budget)
        setups = []
        for _ in range(SETUP_SPAWNS - 1):
            s = Server(bins, snap, threads)
            setups.append(s.setup_s)
            s.stop()
        server = Server(bins, snap, threads)
        setups.append(server.setup_s)
        server_threads = server.status("Threads")
        loader.phase(server, wl["light_rps"], 0.3)  # warm-up
        # Epoch changes ride on the light phase only: each empties the
        # cache, and the refill is a transient whose size varies from run
        # to run; at higher rates it would decide the tail on its own. The
        # light phase is LIGHT_REPEATS phases on fresh connections, whose
        # TCP delayed-ACK state (see README) otherwise persists.
        light_windows = {"p50": [], "p99": []}
        for i in range(LIGHT_REPEATS):
            p = loader.measured_phase(server, wl["light_rps"], 0.12 * budget, sighup=True)
            phases["light%d" % i] = p
            for q in light_windows:
                light_windows[q] += [float(v) for v in p["window_%s_us" % q].split(",")]
        reloads = server.reloads()
        serve_hwm = server.status("VmHWM") / 1024.0
        server_exit = server.stop()
        metrics = {
            "discover_s": (median(disc.walls), "s"),
            "peak_rss_mb.discover": (median(disc.rss_mb), "MB"),
            "peak_rss_mb.serve": (serve_hwm, "MB"),
            "p99_us.light": (statistics.median(light_windows["p99"]), "us"),
            "setup_s": (statistics.median(setups), "s"),
        }
        for name in sorted(n for n in phases if n.startswith("light")):
            p = phases[name]
            n = len(p["window_p99_us"].split(","))
            log("%s: %g req/s, %d samples in %d windows (%d each), median window "
                "p50 %.1f us, p99 %.1f us; whole-phase p50 %.1f us, p99 %.1f us; "
                "generator p99 lateness %.1f us"
                % (name, p["rate"], p["samples"], n, p["samples"] // n,
                   p["p50_med_us"], p["p99_med_us"], p["p50_us"], p["p99_us"],
                   p["late_p99_us"]))
        log("light p50 (median window): %.1f us" % statistics.median(light_windows["p50"]))
    else:
        lay = disc.measure(0.2 * budget, min_runs=2, layers=True)
        blocking = ("ingest.read_s", "ingest.parse_s", "ingest.encode_s", "sample.s",
                    "filter.build_s", "greedy.s", "minimize.s", "verify.s")
        units = {"ingest.mb_per_s": "MB/s", "ingest.table_rss_mb": "MB",
                 "sample.rows": "count", "filter.samples": "count",
                 "filter.bytes": "bytes", "greedy.rounds": "count",
                 "minimize.queries": "count"}
        for k, v in lay.items():
            if k.startswith("program."):
                continue
            metrics[k] = (v, units.get(k, "s"))
        for stage in ("sample", "filter", "greedy", "minimize", "verify"):
            mine = "filter.build_s" if stage == "filter" else stage + ".s"
            log("crosscheck %s: timed %.6f s, PipelineResult::stages %.6f s"
                % (stage, lay[mine], lay.get("program.%s_s" % stage, 0.0)))
        wall = median(disc.walls)
        cpu = median(disc.cpu_s)
        metrics["discover.cpu_s"] = (cpu, "s")
        metrics["discover.cpu_per_wall"] = (cpu / wall if wall else 0.0, "ratio")
        metrics["trace.discover_s"] = (wall, "s")
        metrics["trace.layer_sum_s"] = (sum(lay[k] for k in blocking), "s")

        # Untraced light phase for the tracing overhead and the capacity
        # search, then the traced server through the same light and heavy
        # phases.
        plain = Server(bins, snap, threads)
        loader.phase(plain, wl["light_rps"], 0.3)
        untraced = loader.measured_phase(plain, wl["light_rps"], 0.1 * budget, sighup=True)
        cap, probes = loader.capacity(plain, wl["grid_base_rps"], wl["grid_top_rps"],
                                      wl["probe_s"])
        phases["capacity_probes"] = probes
        metrics["capacity_rps"] = (cap, "1/s")
        log("capacity: %.0f req/s after %d probes (%s)" % (
            cap, len(probes), ", ".join("%.0f:%s" % (p["rate"], "ok" if loader.passes(p) else "no")
                                        for p in probes)))
        plain.stop()
        server = Server(bins, snap, threads, trace_sample=4)
        server_threads = server.status("Threads")
        loader.phase(server, wl["light_rps"], 0.3)
        phases["light"] = loader.measured_phase(server, wl["light_rps"], 0.2 * budget,
                                                sighup=True)
        light_stats = server.stats()
        phases["heavy"] = loader.measured_phase(server, wl["heavy_rps"], 0.15 * budget)
        final_stats = server.stats()
        reloads = server.reloads()
        rss = server.status("VmRSS") / 1024.0
        server_exit = server.stop()
        traces = [json.loads(l) for l in server.stderr if l.startswith('{"type":"trace"')]
        h = light_stats["histograms"]
        c = light_stats["counters"]
        fc = final_stats["counters"]
        us = lambda name, q: h[name][q] / 1000.0
        metrics.update({
            "server.request_p50_us": (us("server.request_ns", "p50"), "us"),
            "server.request_p99_us": (us("server.request_ns", "p99"), "us"),
            "server.lines_per_batch": (c["server.lines_admitted"] / max(1, c["server.batches_executed"]), "ratio"),
            "server.overload_ratio": (fc["server.overload_responses"] / max(1, fc["server.lines_received"]), "ratio"),
            "client.share_p50_us": (phases["light"]["p50_med_us"] - us("server.request_ns", "p50"), "us"),
            "engine.validate_us": (us("engine.pass.validate_ns", "p50"), "us"),
            "engine.dedupe_us": (us("engine.pass.dedupe_ns", "p50"), "us"),
            "engine.execute_us": (us("engine.pass.execute_ns", "p50"), "us"),
            "engine.batch_size_p50": (h["engine.batch_size"]["p50"], "count"),
            "pool.tasks_per_request": (h.get("pool.task_ns", {"count": 0})["count"] / max(1, c["engine.requests"]), "ratio"),
            "pool.task_us": (us("pool.task_ns", "p50") if "pool.task_ns" in h else 0.0, "us"),
            "cache.hit_ratio": (fc["cache.hits"] / max(1, fc["cache.hits"] + fc["cache.misses"]), "ratio"),
            "cache.evictions": (fc["cache.evictions"], "count"),
            "gen.lag_p99_us": (phases["light"]["late_p99_us"], "us"),
            "p50_us.light": (phases["light"]["p50_med_us"], "us"),
            "p50_us.heavy": (phases["heavy"]["p50_med_us"], "us"),
            "p99_us.heavy": (phases["heavy"]["p99_med_us"], "us"),
            "trace.overhead_p50_pct": (100.0 * (phases["light"]["p50_med_us"] / untraced["p50_med_us"] - 1.0), "%"),
            "server.rss_mb": (rss, "MB"),
            "server.threads": (server_threads, "count"),
            "snapshot.reloads": (reloads, "count"),
        })
        for stage in ("parse", "queue", "execute", "flush"):
            vals = [t[stage + "_ns"] / 1000.0 for t in traces]
            metrics["trace.%s_us.p50" % stage] = (quantile(vals, 0.5), "us")
            metrics["trace.%s_us.p99" % stage] = (quantile(vals, 0.99), "us")
        layers = probe(bins, "serve-layers", snap, pool)
        lunits = {"snapfile.read_ms": "ms", "snapfile.mapped_mb": "MB",
                  "snapshot.publish_us": "us", "protocol.parse_ns": "ns",
                  "protocol.encode_ns": "ns", "kernel.query_us": "us",
                  "kernel.accept_share": "ratio", "kernel.gb_per_s": "GB/s",
                  "sample_eval.us": "us"}
        for k, unit in lunits.items():
            metrics[k] = (layers[k], unit)
        info["trace_lines"] = len(traces)
        info["untraced_light"] = untraced

    # Correctness and failure accounting: every discover run (warm-up
    # included) and every request outside the capacity probes counts, and
    # one failure of either makes the run incorrect. A wrong served line
    # fails the run wherever it occurs, capacity probes included.
    attempted = disc.attempted + loader.attempted
    failed = disc.failed + loader.failed + (1 if server_exit != 0 else 0)
    correct = failed == 0 and loader.wrong == 0
    if correct and wl["sighup"] and reloads == 0:
        fail("run invalid: no SIGHUP reload was observed", 3)
    if args.trace == 1:
        metrics["fail_ratio"] = (failed / max(1, attempted), "ratio")
    if not correct:
        log("FAILED: discover %d of %d run(s) failed %s; serve %d of %d request(s) "
            "failed, %d wrong line(s) %s; server exit %s"
            % (disc.failed, disc.attempted, disc.first_wrong[:200], loader.failed,
               loader.attempted, loader.wrong, loader.first_wrong[:200], server_exit))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for k, (v, u) in sorted(metrics.items()):
        log("%-28s %14.6g %s" % (k, v, u))
    out_dir = os.path.join(build_root(), "results")
    os.makedirs(out_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, toy=args.toy, env=env, inputs=hashes,
                  answers=answers,
                  phases=phases, info=info, server_threads=server_threads,
                  reloads=reloads, rates={k: wl[k] for k in ("light_rps", "heavy_rps",
                                                             "limit_us", "grid_base_rps",
                                                             "grid_top_rps")})
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log("result file: " + os.path.relpath(path, ROOT))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        for live in list(LIVE_SERVERS):
            live.stop()
    sys.exit(code)
