"""live_loopback: three seaweedd shards on 127.0.0.1, driven by one client.

The client keeps a fixed number of exact-aggregate queries outstanding in a
closed loop over at most nproc control connections (one per shard), streams
each query's predictor and result events, and checks every FINAL line against
`seaweedd --reference` for the same SQL and seed. Latencies are wall-clock.
"""

import json
import os
import random
import selectors
import socket
import statistics
import subprocess
import time

ENDSYSTEMS = 12
SHARDS = 3
# The cluster is fixed: node ids, topology and tables come from this daemon
# seed, as in scripts/loopback_test.sh. So are the queries: each one's salt,
# which pins its query id and so its aggregation tree, is fixed by its batch,
# its SQL and how many of that SQL came before it in the batch. The workload
# seed draws the order of the SQL schedule.
DAEMON_SEED = 7
SETUPS = 3              # cluster bring-ups per run; setup_s is their median
OUTSTANDING = 12        # closed loop: queries kept in flight
QUERIES = 48            # fixed load of one timed batch
JOIN_TIMEOUT_S = 60
QUERY_TIMEOUT_S = 90
WARMUP_S = 0.5          # after every endsystem joined: first metadata pushes

# Exact aggregates only: integer results are independent of merge order and
# of the query id, so each FINAL line must equal the reference byte for byte.
# The unfiltered GROUP BY SrcPort encodes past one datagram (fragmentation).
MIX = [
    "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80",
    "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE Bytes > 20000",
    "SELECT App, COUNT(*), SUM(Bytes) FROM Flow GROUP BY App",
    "SELECT MIN(Bytes), MAX(Bytes) FROM Flow",
    "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort",
    "SELECT COUNT(*) FROM Flow WHERE DstPort = 443",
]

TICKS = os.sysconf("SC_CLK_TCK")


def schedule(rng):
    """One batch's SQL in a seeded order: QUERIES / len(MIX) blocks, each a
    shuffle of MIX, so every batch holds the same mix and the heavy GROUP BY
    SrcPort stays spread out, one in every block of six."""
    out = []
    while len(out) < QUERIES:
        block = list(MIX)
        rng.shuffle(block)
        out += block
    return out[:QUERIES]


def _ports_free(base):
    socks = []
    try:
        for s in range(SHARDS):
            u = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(u)
            u.bind(("127.0.0.1", base + s))
            t = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            socks.append(t)
            t.bind(("127.0.0.1", base + 100 + s))
        return True
    except OSError:
        return False
    finally:
        for s in socks:
            s.close()


def _pick_base(seed, used):
    for i in range(64):
        base = 21000 + ((seed * 7 + i) % 64) * 200
        if base not in used and _ports_free(base):
            used.add(base)
            return base
    raise RuntimeError("no free loopback port range")


def _proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS


def _proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Control:
    """One line-JSON control connection to a shard."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buf = b""

    def send(self, obj):
        obj = dict(obj, v=1)
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def lines(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise RuntimeError("control connection closed")
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return [json.loads(l) for l in done if l.strip()]

    def request(self, obj):
        self.send(obj)
        while True:
            for msg in self.lines():
                if "event" not in msg:
                    return msg

    def close(self):
        self.sock.close()


class Cluster:
    """Three daemons; start() returns once every endsystem has joined."""

    def __init__(self, daemon, workdir, seed, base, obs_dump):
        self.daemon, self.workdir, self.seed, self.base = daemon, workdir, seed, base
        self.obs_dump = obs_dump
        self.procs = []

    def start(self):
        """Shard 0 first, until endsystem 0 has seeded the ring, so the
        other shards' joins never race the bootstrap into a join retry."""
        epoch_us = int(time.time()) * 1_000_000
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        self._spawn(0, epoch_us)
        self._wait_joined(1, deadline)
        for shard in range(1, SHARDS):
            self._spawn(shard, epoch_us)
        self._wait_joined(ENDSYSTEMS, deadline)

    def _spawn(self, shard, epoch_us):
        cmd = [self.daemon, "--endsystems", str(ENDSYSTEMS), "--shards",
               str(SHARDS), "--shard", str(shard), "--base-port",
               str(self.base), "--seed", str(self.seed), "--epoch-us",
               str(epoch_us), "--profile", "fast"]
        if self.obs_dump:
            cmd += ["--obs-dump", self.dump_path(shard)]
        with open(os.path.join(self.workdir, f"shard{shard}.err"), "w") as err:
            self.procs.append(subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err))

    def _wait_joined(self, n, deadline):
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError("a seaweedd shard exited during bring-up")
            try:
                if sum(s["joined"] for s in self.stats()) >= n:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("endsystems did not join in time")

    def dump_path(self, shard):
        return os.path.join(self.workdir, f"obs_shard{shard}.jsonl")

    def control_port(self, shard):
        return self.base + 100 + shard

    def stats(self):
        out = []
        for shard in range(len(self.procs)):
            c = Control(self.control_port(shard))
            try:
                out.append(c.request({"op": "stats"}))
            finally:
                c.close()
        return out

    def cpu_s(self):
        return sum(_proc_cpu_s(p.pid) for p in self.procs)

    def peak_rss_mb(self):
        return sum(_proc_hwm_mb(p.pid) for p in self.procs)

    def stop(self):
        for shard in range(SHARDS):
            try:
                c = Control(self.control_port(shard))
                c.request({"op": "shutdown"})
                c.close()
            except (OSError, RuntimeError):
                pass
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def references(daemon, seed):
    """FINAL line of the in-memory simulation for each SQL of the mix."""
    procs = {}
    out = {}
    pending = list(MIX)
    try:
        while pending or procs:
            while pending and len(procs) < max(1, os.cpu_count() or 1):
                sql = pending.pop()
                procs[sql] = subprocess.Popen(
                    [daemon, "--reference", "--endsystems", str(ENDSYSTEMS),
                     "--seed", str(seed), "--query", sql],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
            sql, p = next(iter(procs.items()))
            stdout, _ = p.communicate(timeout=170)
            del procs[sql]
            if p.returncode != 0:
                raise RuntimeError(f"reference run failed for {sql}")
            out[sql] = stdout.strip().splitlines()[-1]
    finally:
        for p in procs.values():
            p.kill()
            p.wait()
    return out


def _counter_sum(stats, name):
    return sum(s["counters"].get(name, 0) for s in stats)


def run_batch(cluster, sqls, salts, spans):
    """Closed loop over sqls (salted with salts), OUTSTANDING at a time."""
    sel = selectors.DefaultSelector()
    conns = [Control(cluster.control_port(s))
             for s in range(min(SHARDS, os.cpu_count() or 1))]
    for c in conns:
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, c)
    queries = []
    by_id = {}
    replies = {id(c): [] for c in conns}  # (op, query) awaiting a reply
    next_seq = [0]

    def issue(due):
        i = next_seq[0]
        next_seq[0] += 1
        c = conns[i % len(conns)]
        q = {"sql": sqls[i], "salt": salts[i], "due": due,
             "sent": time.monotonic(), "ttfp": None, "tt90": None,
             "done": None, "pred_rows": -1.0, "pred_es": -1,
             "monotone": True, "final": None, "rows": 0}
        send(c, {"op": "submit", "sql": q["sql"], "salt": q["salt"],
                 "ttl_s": 600})
        replies[id(c)].append(("submit", q))
        queries.append(q)

    def send(c, obj):
        c.sock.setblocking(True)
        c.send(obj)
        c.sock.setblocking(False)

    t0 = time.monotonic()
    for _ in range(min(OUTSTANDING, len(sqls))):
        issue(t0)
    need90 = -(-ENDSYSTEMS * 9 // 10)
    deadline = t0 + QUERY_TIMEOUT_S
    active = min(OUTSTANDING, len(sqls))
    while active > 0 and time.monotonic() < deadline:
        for key, _ in sel.select(timeout=0.5):
            c = key.data
            try:
                msgs = c.lines()
            except BlockingIOError:
                continue
            now = time.monotonic()
            for msg in msgs:
                if "event" not in msg:
                    op, q = replies[id(c)].pop(0)
                    if op != "submit":
                        continue
                    if not msg.get("ok") or "query_id" not in msg:
                        q["error"] = msg.get("error", "refused")
                        q["done"] = now
                        active -= 1
                        continue
                    q["id"] = msg["query_id"]
                    q["rtt"] = now - q["sent"]
                    by_id[q["id"]] = q
                    send(c, {"op": "stream", "query_id": q["id"]})
                    replies[id(c)].append(("stream", q))
                    continue
                q = by_id.get(msg.get("query_id"))
                if q is None or q["done"] is not None:
                    continue
                if msg["event"] == "predictor":
                    if q["ttfp"] is None:
                        q["ttfp"] = now - q["due"]
                    if (msg["total_rows"] < q["pred_rows"]
                            or msg["endsystems"] < q["pred_es"]):
                        q["monotone"] = False
                    q["pred_rows"] = msg["total_rows"]
                    q["pred_es"] = msg["endsystems"]
                elif msg["event"] == "result":
                    if q["tt90"] is None and msg["endsystems"] >= need90:
                        q["tt90"] = now - q["due"]
                    q["rows"] = msg["rows"]
                    if msg.get("complete"):
                        q["final"] = msg.get("final")
                        q["done"] = now
                        active -= 1
                        # The answer is whole: release the query's state and
                        # its periodic result refreshes in the cluster.
                        send(c, {"op": "cancel", "query_id": q["id"]})
                        replies[id(c)].append(("cancel", q))
                        if next_seq[0] < len(sqls):
                            issue(now)
                            active += 1
    wall = time.monotonic() - t0
    sel.close()
    for c in conns:
        c.close()
    if spans is not None:
        for q in queries:
            spans.append({"name": "query", "trace": q["salt"], "parent": None,
                          "start": q["sent"], "end": q["done"],
                          "sql": q["sql"]})
            if "rtt" in q:
                spans.append({"name": "submit", "trace": q["salt"],
                              "parent": "query", "start": q["sent"],
                              "end": q["sent"] + q["rtt"]})
    return queries, wall


def _pct(values, p):
    if not values:
        return 0.0
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def _span_p50s(paths):
    """p50 duration (ms) of each program span name in the daemons' dumps."""
    durations = {}
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("kind") != "span" or rec.get("end") is None:
                    continue
                durations.setdefault(rec["name"], []).append(
                    (rec["end"] - rec["start"]) / 1e3)
    return {name: _pct(v, 50) for name, v in durations.items()}, \
        {name: len(v) for name, v in durations.items()}


def run(daemon, workdir, seed, seconds, trace):
    """Returns (record, per-rep e2e dicts, layers or None)."""
    os.makedirs(workdir, exist_ok=True)
    used = set()
    ref_t0 = time.monotonic()
    refs = references(daemon, DAEMON_SEED)
    ref_s = time.monotonic() - ref_t0

    setup_s, join_s = [], []
    cluster = None
    try:
        for i in range(SETUPS):
            if cluster is not None:
                cluster.stop()
            cluster = Cluster(daemon, workdir, DAEMON_SEED,
                              _pick_base(seed, used),
                              obs_dump=trace)
            t0 = time.monotonic()
            cluster.start()
            join_s.append(time.monotonic() - t0)
            time.sleep(WARMUP_S)
            setup_s.append(time.monotonic() - t0)

        reps = []
        rng = random.Random(seed)
        measured = 0.0
        peak = None
        spans = [] if trace else None
        # The traced run measures one untraced and one traced batch.
        while len(reps) < (2 if trace else 1) or (
                not trace and measured < seconds and len(reps) < 3):
            sqls = schedule(rng)
            salts = [f"b{len(reps)}-k{MIX.index(sql)}-n{sqls[:i].count(sql)}"
                     for i, sql in enumerate(sqls)]
            stats0 = cluster.stats()
            cpu0 = cluster.cpu_s()
            queries, wall = run_batch(cluster, sqls, salts,
                                      spans if reps else None)
            cpu = cluster.cpu_s() - cpu0
            stats1 = cluster.stats()
            # Peak RSS after the first batch, so it always covers one
            # batch's load however many batches fit in the run.
            if peak is None:
                peak = cluster.peak_rss_mb()
            measured += wall
            reps.append((queries, wall, cpu, stats0, stats1))
    finally:
        if cluster is not None:
            cluster.stop()

    attempted = failed = wrong = 0
    reasons = {}
    e2e_reps = []
    for queries, wall, cpu, stats0, stats1 in reps:
        ttfp, tt90, err, lateness, rtt = [], [], [], [], []
        for q in queries:
            attempted += 1
            reason = None
            if "error" in q or "id" not in q:
                reason = "refused"
            elif q["ttfp"] is None:
                reason = "no_predictor"
            elif not q["monotone"]:
                reason = "predictor_not_monotone"
            elif q["tt90"] is None:
                reason = "missed_90pct"
            elif q["final"] is None:
                reason = "incomplete_at_end"
            elif q["final"] != refs[q["sql"]]:
                reason = "wrong_answer"
            if reason:
                failed += 1
                reasons[reason] = reasons.get(reason, 0) + 1
                if reason in ("wrong_answer", "predictor_not_monotone"):
                    wrong += 1
            if q["ttfp"] is not None:
                ttfp.append(q["ttfp"] * 1e3)
            if q["tt90"] is not None:
                tt90.append(q["tt90"] * 1e3)
            if q["rows"] > 0 and q["pred_rows"] >= 0:
                err.append(abs(q["pred_rows"] - q["rows"]) / q["rows"])
            lateness.append((q["sent"] - q["due"]) * 1e3)
            if "rtt" in q:
                rtt.append(q["rtt"] * 1e3)
        n = len(queries)
        tx = _counter_sum(stats1, "net.bytes_tx") - _counter_sum(stats0, "net.bytes_tx")
        e2e = {
            "ttfp_p50_ms": _pct(ttfp, 50), "tt90_p50_ms": _pct(tt90, 50),
            "predictor_err": sum(err) / len(err) if err else 0.0,
            "query_tx_kb": tx / n / 1e3,
            "overhead_Bps": tx / wall / ENDSYSTEMS,
            "run_wall_s": wall, "cpu_s": cpu,
            "_ttfp_n": len(ttfp), "_tt90_n": len(tt90),
            "_ttfp_p90": _pct(ttfp, 90) if len(ttfp) >= 100 else None,
            "_tt90_p90": _pct(tt90, 90) if len(tt90) >= 100 else None,
            "_lateness_ms_p50": _pct(lateness, 50),
            "_lateness_ms_max": max(lateness) if lateness else 0.0,
            "_rtt": rtt, "_stats": (stats0, stats1), "_n": n,
        }
        e2e_reps.append(e2e)

    layers = None
    if trace:
        base, traced = e2e_reps[0], e2e_reps[-1]
        s0, s1 = traced["_stats"]
        n = traced["_n"]

        def d(name):
            return _counter_sum(s1, name) - _counter_sum(s0, name)

        p50s, counts = _span_p50s([os.path.join(workdir, f"obs_shard{s}.jsonl")
                                   for s in range(SHARDS)])
        layers = {
            "net.join_s": statistics.median(join_s),
            "seaweed.predictor_err": traced["predictor_err"],
            "seaweed.ttfp_p50_ms": traced["ttfp_p50_ms"],
            "net.datagrams_per_query": d("net.datagrams_tx") / n,
            "net.bytes_per_query": d("net.bytes_tx") / n,
            "net.fragmented_per_query": d("net.tx_fragmented") / n,
            "net.decode_rejects": d("net.decode_rejects"),
            "net.send_errors": d("net.send_errors"),
            "server.submit_rtt_ms_p50": _pct(traced["_rtt"], 50),
            "server.events_per_query": d("server.events_pushed") / n,
            "net.shard_cpu_ms_per_query": traced["cpu_s"] * 1e3 / n,
            "overlay.heartbeats": d("overlay.heartbeats"),
            "overlay.joins": d("overlay.joins"),
            "overlay.leafset_repairs": d("overlay.leafset_repairs"),
            "seaweed.metadata_pushes": d("seaweed.metadata_pushes"),
            "seaweed.metadata_rereplications": d("seaweed.metadata_rereplications"),
            "seaweed.dissem_reissues_per_query": d("seaweed.dissem_reissues") / n,
            "seaweed.predictor_merges_per_query": d("seaweed.predictor_merges") / n,
            "seaweed.vertex_updates_per_query": d("seaweed.vertex_updates") / n,
            "seaweed.vertex_handovers": d("seaweed.vertex_handovers"),
            "seaweed.vertex_repropagations": d("seaweed.vertex_repropagations"),
            "seaweed.retries_per_query":
                (d("seaweed.leaf_retries") + d("seaweed.vertex_retries")) / n,
            "seaweed.duplicates_suppressed": d("seaweed.duplicates_suppressed"),
            "db.plan_cache.hit_ratio":
                d("db.plan_cache.hits") /
                max(1, d("db.plan_cache.hits") + d("db.plan_cache.binds")),
            "span.disseminate_ms_p50": p50s.get("disseminate", 0.0),
            "span.metadata_lookup_ms_p50": p50s.get("metadata_lookup", 0.0),
            "span.local_exec_ms_p50": p50s.get("local_exec", 0.0),
            "span.aggregation_round_ms_p50": p50s.get("aggregation_round", 0.0),
            "span.aggregation_rounds_per_query":
                counts.get("aggregation_round", 0) / max(1, sum(e["_n"] for e in e2e_reps)),
            "span.result_delivery_ms_p50": p50s.get("result_delivery", 0.0),
            "wire.bytes_per_msg": d("net.bytes_tx") / max(1, d("net.datagrams_tx")),
            "obs.trace_overhead_frac": traced["run_wall_s"] / base["run_wall_s"],
        }
        with open(os.path.join(workdir, "client_spans.jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")

    record = {
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "fail_reasons": reasons, "setup_s": setup_s, "reference_s": ref_s,
        "peak_rss_mb": peak,
    }
    return record, e2e_reps, layers
