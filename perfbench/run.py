#!/usr/bin/env python3
"""Seaweed benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload query_mix|churn_5k|live_loopback
                             --seed N [--seconds S] [--trace 0|1]

Builds the benchmark package (perfbench/CMakeLists.txt) into .bench_build,
runs one workload against the stock configuration, checks its answers, and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, taken from a traced run. A wrong answer makes the
command exit 1. perfbench/README.md documents workloads, metrics and seeds.
"""

import argparse
import datetime
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The build tree: $CARGO_TARGET_DIR when set (the generic build-directory
# variable benchmark harnesses export), else .bench_build in the checkout.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CHILD_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, HERE)
import live  # noqa: E402

WORKLOADS = ("query_mix", "churn_5k", "live_loopback")
MAX_REPS = 3


class RunFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RunFailed("build failed: " + " ".join(cmd))


def context(args):
    ctx = {"nproc": os.cpu_count(), "cpu_model": "?", "cpu_mhz": "?",
           "build_type": "?", "compiler": "?", "git_commit": "unknown",
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
               timespec="seconds")}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and ctx["cpu_model"] == "?":
                    ctx["cpu_model"] = value
                elif key == "cpu MHz" and ctx["cpu_mhz"] == "?":
                    ctx["cpu_mhz"] = value
    except OSError:
        pass
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    ctx["build_type"] = line.split("=", 1)[1].strip()
        for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                           "CMakeCXXCompiler.cmake")):
            fields = {}
            with open(path) as f:
                for line in f:
                    if line.startswith("set(CMAKE_CXX_COMPILER_ID ") or \
                            line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                        name, value = line[4:].rstrip(")\n").split(" ", 1)
                        fields[name] = value.strip('"')
            ctx["compiler"] = "{} {}".format(
                fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    except OSError:
        pass
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            ctx["git_commit"] = out.stdout.strip()
    except OSError:
        pass
    return ctx


def sim_rep(workload, seed, traced, spans_path=None):
    """One repetition in its own child process; returns its JSON record."""
    cmd = [os.path.join(BUILD, "sim_workload"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    if spans_path:
        cmd += ["--spans", spans_path]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = status  # reaped here, not by Popen
    finally:
        timer.cancel()
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        hint = " (out of memory or over time?)" if sig == signal.SIGKILL else ""
        raise RunFailed(f"{workload}: child killed by signal {sig}{hint}")
    if os.WEXITSTATUS(status) != 0:
        raise RunFailed(f"{workload}: child exited {os.WEXITSTATUS(status)}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["e2e"]["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


# Simulated-time metrics: identical for every repetition of one seed.
SIM_TIME = ("ttfp_p50_ms", "ttfp_p90_ms", "tt90_p50_ms", "tt90_p90_ms",
            "predictor_err", "query_fail_frac", "query_tx_kb", "overhead_Bps")
WALL = ("run_wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def run_sim(args):
    reps = []
    measured = 0.0
    while not reps or (not args.trace and measured < args.seconds
                       and len(reps) < MAX_REPS):
        reps.append(sim_rep(args.workload, args.seed, traced=False))
        measured += reps[-1]["e2e"]["run_wall_s"]
    deterministic = all(
        r["e2e"].get(k) == reps[0]["e2e"].get(k) for r in reps for k in SIM_TIME)
    traced = None
    if args.trace:
        spans = os.path.join(BUILD, "results",
                             f"{args.workload}-seed{args.seed}-spans.jsonl")
        traced = sim_rep(args.workload, args.seed, traced=True, spans_path=spans)
        log(f"bench spans written to {spans}")
    e2e = {k: reps[0]["e2e"][k] for k in SIM_TIME if k in reps[0]["e2e"]}
    for k in WALL:
        e2e[k] = statistics.median(r["e2e"][k] for r in reps)
    counts = {"ttfp": reps[0]["ttfp_n"], "tt90": reps[0]["tt90_n"]}
    layers = None
    if traced:
        layers = dict(traced["layers"])
        layers["obs.trace_overhead_frac"] = (
            traced["e2e"]["run_wall_s"] / reps[0]["e2e"]["run_wall_s"])
    all_reps = reps + ([traced] if traced else [])
    summary = {
        "attempted": sum(r["attempted"] for r in all_reps),
        "failed": sum(r["failed"] for r in all_reps),
        "wrong": sum(r["wrong"] for r in all_reps),
        "fail_reasons": [r["fail_reasons"] for r in all_reps],
        "reps": len(reps), "deterministic": deterministic,
        "load": "open loop: {} Poisson arrivals over {:.0f} sim-s, round-robin "
                "origins; arrivals fire exactly at their due sim time, so the "
                "generator is never late".format(
                    int(reps[0]["attempted"]), reps[0]["window_s"]),
    }
    return summary, e2e, counts, layers, all_reps


def run_live(args):
    daemon = os.path.join(BUILD, "seaweedd")
    workdir = os.path.join(BUILD, "work", f"live-seed{args.seed}")
    try:
        record, reps, layers = live.run(daemon, workdir, args.seed,
                                        args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        raise RunFailed(f"live_loopback: {e}")
    measured = reps[:1] if args.trace else reps
    e2e = {k: statistics.median(r[k] for r in measured)
           for k in ("ttfp_p50_ms", "tt90_p50_ms", "predictor_err",
                     "query_tx_kb", "overhead_Bps", "run_wall_s", "cpu_s")}
    e2e["setup_s"] = statistics.median(record["setup_s"])
    e2e["peak_rss_mb"] = record["peak_rss_mb"]
    e2e["query_fail_frac"] = record["failed"] / record["attempted"]
    first = measured[0]
    if first["_ttfp_p90"] is not None:
        e2e["ttfp_p90_ms"] = first["_ttfp_p90"]
    if first["_tt90_p90"] is not None:
        e2e["tt90_p90_ms"] = first["_tt90_p90"]
    counts = {"ttfp": first["_ttfp_n"], "tt90": first["_tt90_n"]}
    summary = {
        "attempted": record["attempted"], "failed": record["failed"],
        "wrong": record["wrong"], "fail_reasons": [record["fail_reasons"]],
        "reps": len(reps), "deterministic": None,
        "reference_s": record["reference_s"],
        "setup_samples_s": record["setup_s"],
        "load": "closed loop: {} exact aggregates outstanding, {} per batch; "
                "client lateness against schedule p50 {:.3f} ms, max {:.3f} ms"
                .format(live.OUTSTANDING, live.QUERIES,
                        first["_lateness_ms_p50"], first["_lateness_ms_max"]),
    }
    raw = [{k: v for k, v in r.items() if k not in ("_rtt", "_stats")}
           for r in reps]
    return summary, e2e, counts, layers, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
        ctx = context(args)
        runner = run_live if args.workload == "live_loopback" else run_sim
        summary, e2e, counts, layers, raw = runner(args)
    except RunFailed as e:
        log(f"FAILED run: {e}")
        return 1

    print("context: " + json.dumps(ctx))
    print(f"workload {args.workload} seed {args.seed}: {summary['load']}")
    print("queries: attempted {} failed {} wrong {}  query_fail_frac = {:.4f} "
          "ratio".format(summary["attempted"], summary["failed"],
                         summary["wrong"],
                         summary["failed"] / summary["attempted"]))
    for reasons in summary["fail_reasons"]:
        if reasons:
            print(f"  failures: {reasons}")
    if summary["deterministic"] is False:
        print("  NOT deterministic: simulated-time metrics differ across "
              "repetitions of one seed")

    metrics = {}
    if not args.trace:
        print(f"end-to-end ({summary['reps']} repetition(s), medians):")
        for m in spec["end_to_end"]:
            value = e2e[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            kind = m["name"].split("_p")[0] if "_p50" in m["name"] else None
            n = f"  (n={counts[kind]})" if kind in counts else ""
            print(f"  {m['name']:<16} = {value:.6g} {m['unit']}{n}")
        print(f"  {'ttfp_p50_ms':<16} = {e2e['ttfp_p50_ms']:.6g} ms  "
              f"(n={counts['ttfp']}; per layer as seaweed.ttfp_p50_ms)")
        print(f"  {'predictor_err':<16} = {e2e['predictor_err']:.6g} ratio"
              "  (per layer as seaweed.predictor_err)")
        for name in ("ttfp_p90_ms", "tt90_p90_ms"):
            kind = name.split("_p")[0]
            if name in e2e:
                print(f"  {name:<16} = {e2e[name]:.6g} ms  (n={counts[kind]})")
            else:
                print(f"  {name:<16} not reported: n={counts[kind]} < 100")
    else:
        print("per-layer (traced run):")
        missing = []
        for m in spec["per_layer"]:
            value = layers.get(m["name"])
            if value is None:
                missing.append(m["name"])
                value = 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<36} = {value:.6g} {m['unit']}")
        if missing:
            print("  not measured on this workload (reported as 0): "
                  + ", ".join(missing))
        if layers.get("obs.spans_lost", 0) > 0:
            print("  span.* numbers are partial: the program's span ring "
                  "overwrote spans before they were read")

    correct = summary["wrong"] == 0 and summary["deterministic"] is not False
    result = {"correct": correct, "attempted": int(summary["attempted"]),
              "failed": int(summary["failed"]), "metrics": metrics}
    record = dict(result, context=ctx, summary=summary, e2e=e2e,
                  layers=layers, reps=raw)
    path = os.path.join(BUILD, "results", "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
