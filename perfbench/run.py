#!/usr/bin/env python3
"""Seaweed benchmark: one command for every workload.

    python3 perfbench/run.py --workload churn|query_mix|live_loopback \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the program
(through perfbench/CMakeLists.txt, into .bench_build/); later runs only
re-check the build. Every run:

  * makes its inputs from --seed (same seed, same inputs);
  * sets up several times and reports the median set-up time;
  * measures for about --seconds seconds;
  * checks every answer (perfbench/workloads.json lists the checks);
  * prints each metric by name with its unit, then, as the last line of
    stdout, one JSON object {"correct","attempted","failed","metrics"}.
    --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

It exits non-zero when an answer check fails or the run cannot complete.
churn and query_mix run inside perfbench/swbench (one process per run);
live_loopback starts three seaweedd shards on 127.0.0.1 and drives them
from this process over one control connection per shard.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
SWBENCH = os.path.join(BUILD_DIR, "swbench")
SEAWEEDD = os.path.join(BUILD_DIR, "tools", "seaweedd")

# Metric names and units come from the benchmark definition; the workload
# descriptions (layers loaded and bypassed, loop type, seeds) from
# workloads.json next to this file.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _DEF = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in _DEF["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEF["per_layer"]}
with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
    WORKLOADS = json.load(f)["workloads"]

# live_loopback shape: shards x endsystems on 127.0.0.1 with --profile fast,
# an open-loop Poisson generator at rate_qps over one control connection per
# shard, at least min_queries queries per timed phase, each with a TTL
# shorter than the 15 s result refresh of the fast profile but about twice
# the time to FINAL, so the set of active queries stays level.
LIVE = {"endsystems": 48, "shards": 3, "rate_qps": 4.0, "min_queries": 100,
        "ttl_s": 14, "setups": 3}
# seaweedd --seed derives node ids, topology and tables; like the simulated
# workloads, the deployment stays fixed and --seed drives only the load
# (arrival times and sketch salts).
CLUSTER_SEED = 1
LIVE_SQL = [
    "SELECT COUNT(*) FROM Flow",
    "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
    "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
    "SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
    "SELECT App, COUNT(*), SUM(Bytes) FROM Flow GROUP BY App",
    "SELECT MIN(Bytes), MAX(Bytes) FROM Flow",
    "SELECT DISTINCT_APPROX(SrcPort) FROM Flow",
    "SELECT TOPK(App, 3) FROM Flow",
]


def salt_of(q):
    """Sketch answers are deterministic only for a fixed tree shape, so
    sketch queries pin their id with a salt shared with the reference run;
    exact queries keep the default time-derived id."""
    sketch = q.sql.startswith(("DISTINCT_APPROX(", "QUANTILE(", "TOPK("),
                              len("SELECT "))
    return q.salt if sketch else ""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The run could not complete; no result is printed."""


# --------------------------------------------------------------------------
# Build and run metadata.

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "seaweed", "cluster.h")):
        raise BenchError("program sources not found under %s/src" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "swbench", "seaweedd",
           "-j", jobs]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL,
                      stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def source_commit():
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha1()
    for base in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(values, p):
    """Nearest-rank percentile, p in [0, 100]."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = max(1, -(-len(v) * p // 100))
    return v[int(rank) - 1]


# --------------------------------------------------------------------------
# Simulated workloads (churn, query_mix): one swbench process per run.

def run_sim(workload, seed, seconds, trace):
    spans = os.path.join(OUT_DIR, "%s-seed%d.spans.jsonl" % (workload, seed))
    cmd = [SWBENCH, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError("swbench did not finish in time")
    if proc.returncode != 0:
        raise BenchError("swbench exited %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    reps = raw["reps"]
    plain = [r for r in reps if not r["setup_only"] and not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out = {
        "attempted": raw["attempted"],
        "failures": raw["failures"],
        "gen_lag_ms_max": 0.0,  # simulated arrivals fire exactly when due
        "setup_s": median([r["setup_s"] for r in reps]),
        "run_s": median([r["run_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "overhead_Bps": raw["overhead_Bps"],
        "result_bytes_per_query": raw["result_bytes_per_query"],
        "dissem_bytes_per_query": raw["dissem_bytes_per_query"],
        "ttfp": raw["ttfp_ms"],
        "tt90": raw["tt90_ms"],
        "layers": dict(raw["layers"]),
    }
    if trace:
        layers = out["layers"]
        layers["trace.gen_s"] = median([r["trace_gen_s"] for r in reps])
        layers["setup.cluster_build_s"] = median(
            [r["cluster_build_s"] for r in reps])
        layers["setup.join_s"] = median([r["join_s"] for r in reps])
        # Fastest against fastest: the first repetition of a process pays
        # for heap growth, which would otherwise read as tracing cost.
        fastest = min(r["run_s"] for r in plain)
        layers["obs.trace_overhead_pct"] = 100.0 * (
            min(r["run_s"] for r in traced) / fastest - 1.0)
    return out


# --------------------------------------------------------------------------
# live_loopback: three seaweedd shards driven over the control protocol.

try:
    _LIBC = ctypes.CDLL("libc.so.6", use_errno=True)
except OSError:
    _LIBC = None


def _die_with_parent():
    # Child processes must not outlive this one, whatever ends it.
    if _LIBC is not None:
        _LIBC.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _ports_free(base, shards):
    socks = []
    try:
        for s in range(shards):
            u = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(u)
            u.bind(("127.0.0.1", base + s))
            t = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            socks.append(t)
            t.bind(("0.0.0.0", base + 100 + s))
        return True
    except OSError:
        return False
    finally:
        for s in socks:
            s.close()


def pick_ports(shards):
    rnd = random.SystemRandom()  # ports are not inputs; keep them off --seed
    for _ in range(50):
        base = rnd.randrange(20000, 60000, 2)
        if _ports_free(base, shards):
            return base
    raise BenchError("no free loopback port range")


def _proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Conn:
    """One line-JSON control connection. Requests are answered in order;
    push events ("event" key) go to `on_event(msg, arrival_time)`."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.settimeout(None)
        self.lock = threading.Lock()
        self.pending = []  # [(send_time, callback)]
        self.on_event = lambda msg, now: None
        self.rtts_ms = []
        threading.Thread(target=self._read, daemon=True).start()

    def request(self, obj, callback=None):
        line = (json.dumps(dict(obj, v=1)) + "\n").encode()
        with self.lock:
            self.pending.append((time.monotonic(), callback))
            self.sock.sendall(line)

    def call(self, obj, timeout=10):
        box, done = [], threading.Event()

        def cb(reply):
            box.append(reply)
            done.set()
        self.request(obj, cb)
        if not done.wait(timeout):
            raise BenchError("control request %s timed out" % obj.get("op"))
        return box[0]

    def _read(self):
        buf = b""
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line.strip():
                        self._dispatch(json.loads(line), time.monotonic())
        except (OSError, ValueError):
            pass

    def _dispatch(self, msg, now):
        if "event" in msg:
            self.on_event(msg, now)
            return
        with self.lock:
            sent, cb = self.pending.pop(0)
        self.rtts_ms.append((now - sent) * 1e3)
        if cb:
            cb(msg)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Cluster:
    """Three seaweedd shards on 127.0.0.1, owned by this process."""

    def __init__(self, tag):
        self.n = LIVE["endsystems"]
        self.shards = LIVE["shards"]
        self.procs = []
        self.conns = []
        self.dumps = []
        self.tag = tag

    def start(self):
        t0 = time.monotonic()
        base = pick_ports(self.shards)
        epoch_us = int(time.time() * 1e6)
        for s in range(self.shards):
            dump = os.path.join(OUT_DIR, "live-%s-shard%d.jsonl" % (self.tag, s))
            if os.path.exists(dump):
                os.remove(dump)
            self.dumps.append(dump)
            err = open(os.path.join(OUT_DIR, "live-%s-shard%d.err" % (
                self.tag, s)), "w")
            cmd = [SEAWEEDD, "--endsystems", str(self.n), "--shards",
                   str(self.shards), "--shard", str(s), "--base-port", str(base),
                   "--seed", str(CLUSTER_SEED), "--epoch-us", str(epoch_us),
                   "--profile", "fast", "--obs-dump", dump]
            self.procs.append(subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=_die_with_parent))
            err.close()
        # Control ports answer once each daemon is listening.
        deadline = time.monotonic() + 30
        for s in range(self.shards):
            while True:
                self._check_alive()
                try:
                    self.conns.append(Conn(base + 100 + s))
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise BenchError("shard %d control port never opened" % s)
                    time.sleep(0.02)
        built = time.monotonic()
        while True:
            self._check_alive()
            joined = sum(c.call({"op": "stats"})["joined"] for c in self.conns)
            if joined >= self.n:
                break
            if time.monotonic() > deadline + 30:
                raise BenchError("only %d/%d endsystems joined" % (joined, self.n))
            time.sleep(0.05)
        done = time.monotonic()
        return done - t0, built - t0, done - built

    def _check_alive(self):
        for p in self.procs:
            if p.poll() is not None:
                raise BenchError("a seaweedd shard exited (code %s)" % p.returncode)

    def cpu_s(self):
        return sum(_proc_cpu_s(p.pid) for p in self.procs)

    def stats(self):
        return [c.call({"op": "stats"}) for c in self.conns]

    def stop(self):
        """Shuts the shards down through the control port, so their obs
        dumps get written; returns their summed peak RSS in MiB."""
        for c in self.conns:
            try:
                c.request({"op": "shutdown"})
            except OSError:
                pass
        rss_kib = 0
        deadline = time.monotonic() + 30
        for s, p in enumerate(self.procs):
            ru, killed = _reap(p, deadline)
            if killed:
                raise BenchError("shard %d ignored shutdown for 30 s" % s)
            rss_kib += ru.ru_maxrss
        for c in self.conns:
            c.close()
        self.conns = []
        return rss_kib / 1024.0

    def kill(self):
        for c in self.conns:
            c.close()
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass


def _reap(p, deadline):
    """Waits for `p` until `deadline`, then kills it; returns its rusage and
    whether it had to be killed. (Popen.wait would reap the child and drop
    the rusage.)"""
    killed = False
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return ru, killed
        if time.monotonic() > deadline:
            p.kill()
            killed = True
            deadline = float("inf")
        time.sleep(0.02)


class Query:
    def __init__(self, i, sql, due, salt):
        self.i, self.sql, self.due, self.salt = i, sql, due, salt
        self.sent = None
        self.qid = None
        self.error = None
        self.first_predictor = None
        self.reached90 = None
        self.final = None
        self.done_at = None
        self.last_pred = (-1.0, -1)
        self.regressed = False
        self.overcount = False


def live_schedule(seed, count, rate):
    """Open-loop Poisson arrivals and the query rotation, fixed from the seed
    before the run starts. A Poisson process conditioned on `count` arrivals
    in count/rate seconds is that many uniform points, so every seed offers
    the same load over the same span."""
    rng = random.Random(seed * 7919 + 17)
    due = sorted(rng.uniform(0, count / rate) for _ in range(count))
    return [Query(i, LIVE_SQL[i % len(LIVE_SQL)], t, "s%d-q%d" % (seed, i))
            for i, t in enumerate(due)]


def drive(cluster, queries):
    """Submits `queries` at their due times (open loop) and waits until each
    completes or expires. Returns (run_s, gen_lag_ms_max)."""
    by_id = {}
    lock = threading.Lock()
    all_done = threading.Event()
    remaining = [len(queries)]
    n = cluster.n
    need90 = -(-9 * n // 10)

    def finish(q, now):
        if q.done_at is None:
            q.done_at = now
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    def on_event(msg, now):
        with lock:
            q = by_id.get(msg.get("query_id"))
        if q is None:
            return
        if msg["event"] == "predictor":
            if q.first_predictor is None:
                q.first_predictor = now
            rows, es = msg.get("total_rows", 0), msg.get("endsystems", 0)
            if rows < q.last_pred[0] or es < q.last_pred[1]:
                q.regressed = True
            q.last_pred = (rows, es)
        elif msg["event"] == "result":
            es = msg.get("endsystems", 0)
            if es > msg.get("total", n):
                q.overcount = True
            if q.reached90 is None and es >= need90:
                q.reached90 = now
            if msg.get("complete"):
                q.final = msg.get("final")
                finish(q, now)

    for c in cluster.conns:
        c.on_event = on_event

    def on_submit(q, conn, reply):
        now = time.monotonic()
        if not reply.get("ok"):
            q.error = reply.get("error", "submit refused")
            finish(q, now)
            return
        with lock:
            q.qid = reply["query_id"]
            by_id[q.qid] = q
        conn.request({"op": "stream", "query_id": q.qid})

    t0 = time.monotonic()
    lag_max = 0.0
    for q in queries:
        due = t0 + q.due
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        q.sent = time.monotonic()
        lag_max = max(lag_max, (q.sent - due) * 1e3)
        conn = cluster.conns[q.i % len(cluster.conns)]
        req = {"op": "submit", "sql": q.sql, "ttl_s": LIVE["ttl_s"]}
        if salt_of(q):
            req["salt"] = salt_of(q)
        conn.request(req, lambda reply, q=q, conn=conn: on_submit(q, conn, reply))
    last_due = t0 + queries[-1].due
    all_done.wait(max(0.0, last_due + LIVE["ttl_s"] + 5 - time.monotonic()))
    end = time.monotonic()
    for q in queries:
        q.due_abs = t0 + q.due
        q.end = q.done_at or end
    return end - t0, lag_max


def reference_lines(queries):
    """FINAL line of `seaweedd --reference` per distinct (sql, salt)."""
    keys = sorted({(q.sql, salt_of(q)) for q in queries})
    out, running = {}, []
    for key in keys + [None] * 3:
        if key is not None:
            cmd = [SEAWEEDD, "--reference", "--endsystems", str(LIVE["endsystems"]),
                   "--seed", str(CLUSTER_SEED), "--query", key[0]]
            if key[1]:
                cmd += ["--salt", key[1]]
            running.append((key, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, preexec_fn=_die_with_parent)))
        while running and (len(running) >= 3 or key is None):
            k, p = running.pop(0)
            text, _ = p.communicate(timeout=60)
            out[k] = text.strip() if p.returncode == 0 else None
    return out


def read_dumps(paths):
    counters, hists, series, spans = {}, {}, {}, 0
    for path in paths:
        if not os.path.isfile(path):
            raise BenchError("shard obs dump %s missing" % path)
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                kind, name = rec.get("kind"), rec.get("name")
                if kind == "counter":
                    counters[name] = counters.get(name, 0) + rec["value"]
                elif kind == "timeseries":
                    series[name] = series.get(name, 0) + rec["total"]
                elif kind == "histogram":
                    hists.setdefault(name, []).append(rec)
                elif kind == "span":
                    spans += 1
    return counters, hists, series, spans


def hist_quantile(recs, q):
    """Nearest-rank quantile over merged log2 buckets (bucket upper bound)."""
    buckets = {}
    for r in recs or []:
        for b, c in r["buckets"]:
            buckets[b] = buckets.get(b, 0) + c
    total = sum(buckets.values())
    if not total:
        return 0.0
    rank, seen = max(1, -(-total * q // 1)), 0
    for b in sorted(buckets):
        seen += buckets[b]
        if seen >= rank:
            return float((1 << b) - 1)
    return 0.0


def run_live(seed, seconds, trace):
    """The generator records the same timestamps whether or not the run is
    traced; a traced run only assembles them into spans afterwards and adds
    the shards' obs dumps, so both run identical code while timed."""
    os.makedirs(OUT_DIR, exist_ok=True)
    count = max(LIVE["min_queries"], int(LIVE["rate_qps"] * seconds))
    queries = live_schedule(seed, count, LIVE["rate_qps"])
    setups, clusters = [], []
    try:
        # Set up several times; the last cluster serves the timed phase.
        for k in range(LIVE["setups"]):
            c = Cluster("seed%d-%d" % (seed, k))
            clusters.append(c)
            setups.append(c.start())
            if k + 1 < LIVE["setups"]:
                c.stop()
        cluster = clusters[-1]
        cpu0 = cluster.cpu_s()
        stats0 = cluster.stats()
        run_s, lag = drive(cluster, queries)
        cpu_s = cluster.cpu_s() - cpu0
        stats1 = cluster.stats()
        rtts = [r for c in cluster.conns for r in c.rtts_ms]
        rss_mb = cluster.stop()
    finally:
        for c in clusters:
            c.kill()
    counters, hists, series, obs_spans = read_dumps(cluster.dumps)
    tx = sum(s1["counters"].get("bw.tx.total_bytes", 0) -
             s0["counters"].get("bw.tx.total_bytes", 0)
             for s0, s1 in zip(stats0, stats1))
    result = {
        "attempted": len(queries),
        "failures": check_live(queries),
        "gen_lag_ms_max": lag,
        "setup_s": median([s[0] for s in setups]),
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "overhead_Bps": tx / run_s / cluster.n,
        "result_bytes_per_query": series.get("bw.tx.result", 0) / len(queries),
        "dissem_bytes_per_query": (series.get("bw.tx.dissemination", 0) +
                                   series.get("bw.tx.batched", 0)) / len(queries),
        "ttfp": [(q.first_predictor - q.due_abs) * 1e3 for q in queries
                 if q.first_predictor is not None],
        "tt90": [(q.reached90 - q.due_abs) * 1e3 for q in queries
                 if q.reached90 is not None],
        "layers": {},
    }
    if trace:
        result["layers"] = live_layers(counters, hists, series, obs_spans,
                                       rtts, setups)
        write_spans(queries, seed)
    return result


def check_live(queries):
    refs = reference_lines(queries)
    failures = []
    for q in queries:
        key = (q.sql, salt_of(q))
        why = None
        if q.error:
            why = q.error
        elif q.overcount:
            why = "result covered more endsystems than exist"
        elif q.regressed:
            why = "completeness predictor went backwards"
        elif q.first_predictor is None:
            why = "no completeness predictor arrived"
        elif q.reached90 is None:
            why = "never covered 90% of endsystems"
        elif q.final is None:
            why = "no FINAL line before the TTL"
        elif refs.get(key) is None:
            why = "seaweedd --reference failed"
        elif q.final != refs[key]:
            why = "FINAL differs from --reference: %r vs %r" % (
                q.final[:120], refs[key][:120])
        if why:
            failures.append("live_loopback #%d [%s]: %s" % (q.i, q.sql, why))
    return failures


def live_layers(counters, hists, series, obs_spans, rtts, setups):
    c = counters.get
    upd, rep = c("seaweed.vertex_updates", 0), c("seaweed.vertex_repropagations", 0)
    hits, misses = c("seaweed.pred_cache_hits", 0), c("seaweed.pred_cache_misses", 0)
    plan_hits, binds = c("db.plan_cache.hits", 0), c("db.plan_cache.binds", 0)
    scanned = sum(r["sum"] for r in hists.get("db.rows_scanned", []))
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({
        "overlay.heartbeats": c("overlay.heartbeats", 0),
        "overlay.joins": c("overlay.joins", 0),
        "overlay.leafset_repairs": c("overlay.leafset_repairs", 0),
        "overlay.route_hops_p50": hist_quantile(hists.get("overlay.route_hops"), 0.5),
        "overlay.bytes": series.get("bw.tx.pastry", 0),
        "seaweed.metadata_pushes": c("seaweed.metadata_pushes", 0),
        "seaweed.metadata_bytes": series.get("bw.tx.metadata", 0),
        "seaweed.vertex_updates": upd,
        "seaweed.vertex_repropagations": rep,
        "seaweed.reprop_share": rep / (rep + upd) if rep + upd else 0.0,
        "seaweed.result_bytes": series.get("bw.tx.result", 0),
        "seaweed.sketch_merges": c("seaweed.sketch.merges", 0),
        "seaweed.predictor_merges": c("seaweed.predictor_merges", 0),
        "seaweed.pred_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "seaweed.predictor_bytes": series.get("bw.tx.predictor", 0),
        "seaweed.dissem_bytes": series.get("bw.tx.dissemination", 0) +
        series.get("bw.tx.batched", 0),
        "seaweed.dissem_reissues": c("seaweed.dissem_reissues", 0),
        "db.rows_scanned": scanned,
        "db.plan_cache_hit_ratio": plan_hits / (plan_hits + binds) if plan_hits + binds else 0.0,
        "wire.bytes_tx": c("bw.tx.total_bytes", 0),
        "net.datagrams_tx": c("net.datagrams_tx", 0),
        "net.bytes_tx": c("net.bytes_tx", 0),
        "net.tx_fragmented": c("net.tx_fragmented", 0),
        "net.reassembled": c("net.reassembled", 0),
        "net.decode_rejects": c("net.decode_rejects", 0),
        "net.send_errors": c("net.send_errors", 0),
        "net.control_rtt_ms_p50": percentile(rtts, 50),
        "net.control_rtt_ms_p90": percentile(rtts, 90),
        "net.events_pushed": c("server.events_pushed", 0),
        "obs.spans": obs_spans,
        # Traced and untraced live runs execute the same code (run_live).
        "obs.trace_overhead_pct": 0.0,
        "setup.cluster_build_s": median([s[1] for s in setups]),
        "setup.join_s": median([s[2] for s in setups]),
    })
    return layers


def write_spans(queries, seed):
    """One span per query (due -> FINAL) with children for the submit, the
    first predictor and the 90% mark; all share the query id."""
    t0 = min(q.due_abs for q in queries)
    with open(os.path.join(OUT_DIR, "live_loopback-seed%d.spans.jsonl" % seed),
              "w") as f:
        sid = 0
        for q in queries:
            parent = sid
            for name, start, end in (("query", q.due_abs, q.end),
                                     ("submit", q.due_abs, q.sent),
                                     ("first_predictor", q.due_abs,
                                      q.first_predictor),
                                     ("reached90", q.due_abs, q.reached90)):
                if end is None:
                    continue
                f.write(json.dumps({
                    "id": sid, "parent": -1 if name == "query" else parent,
                    "name": name, "query": q.qid or "",
                    "start_ns": int((start - t0) * 1e9),
                    "end_ns": int((end - t0) * 1e9)}) + "\n")
                sid += 1


# --------------------------------------------------------------------------

def run_all(args):
    """Runs every workload, each in its own process, with its default seed
    unless --seed is given."""
    rc = 0
    for name, wl in WORKLOADS.items():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(wl["default_seed"] if args.seed is None else args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        sys.stdout.flush()
        rc = rc or subprocess.run(cmd).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's default_seed)")
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["default_seed"]
    if args.seconds is None:
        args.seconds = _DEF["run_seconds"]

    # A terminating signal unwinds through the finally blocks that stop the
    # shards.
    def on_signal(signum, _):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)

    try:
        # Compilers and daemons keep their scratch files inside the checkout.
        os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
        os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        wl = WORKLOADS[args.workload]
        print("# workload=%s seed=%d seconds=%g trace=%d loop=%s rate_qps=%s "
              "connections=%s nproc=%d build_type=%s commit=%s" % (
                  args.workload, args.seed, args.seconds, args.trace,
                  wl["loop"], wl["rate_qps"], wl["connections"],
                  os.cpu_count() or 1, BUILD_TYPE, source_commit()), flush=True)
        if args.workload == "live_loopback":
            r = run_live(args.seed, args.seconds, bool(args.trace))
        else:
            r = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log("run.py: %s" % e)
        return 2

    fails = r["failures"]
    for f in fails:
        log("FAILED: " + f)
    attempted = max(1, r["attempted"])
    if args.trace:
        values = dict(r["layers"])
        values["query_fail_frac"] = len(fails) / attempted
        values["gen_lag_ms_max"] = r["gen_lag_ms_max"]
        names = PER_LAYER
    else:
        values = {k: r[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb",
                                    "overhead_Bps", "result_bytes_per_query",
                                    "dissem_bytes_per_query")}
        values["ttfp_ms_p50"] = percentile(r["ttfp"], 50)
        values["ttfp_ms_p90"] = percentile(r["ttfp"], 90)
        values["tt90_ms_p50"] = percentile(r["tt90"], 50)
        values["tt90_ms_p90"] = percentile(r["tt90"], 90)
        names = END_TO_END
        # Reported on every run, outside the bounded metrics (both are 0
        # in a healthy run).
        print("query_fail_frac %.6g frac (%d of %d)" % (
            len(fails) / attempted, len(fails), attempted))
        print("gen_lag_ms_max %.6g ms" % r["gen_lag_ms_max"])
        print("latency_samples ttfp=%d tt90=%d" % (len(r["ttfp"]), len(r["tt90"])))
    metrics = {}
    for name, unit in names.items():
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print("%s %.6g %s" % (name, metrics[name]["value"], unit))
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}))
    sys.stdout.flush()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
