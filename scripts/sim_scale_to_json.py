#!/usr/bin/env python3
"""Converts bench/sim_scale raw ResultWriter output into BENCH_sim_scale.json.

Usage: scripts/sim_scale_to_json.py <raw.json> [note...] > BENCH_sim_scale.json

Extra arguments are joined into a free-form "notes" field (e.g. recording
that the run was capped with SEAWEED_SIM_SCALE_MAX_N).

The raw file is what SEAWEED_BENCH_OUT captures: a "scale" table with one
row per (endsystems, sim_hours, encode_in_flight) configuration. The
committed form groups rows by population, one entry per configuration of
the serial engine, matching the layout of the other BENCH_*.json files in
the repo root.
"""
import datetime
import json
import os
import sys


def cpu_mhz():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    return round(float(line.split(":")[1]))
    except OSError:
        pass
    return None


def engine_name(encode_in_flight: bool) -> str:
    return "serial_encoded" if encode_in_flight else "serial_live"


def main() -> None:
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    table = raw["tables"]["scale"]
    cols = table["columns"]
    points: dict = {}
    for row in table["rows"]:
        r = dict(zip(cols, row))
        key = str(int(r["endsystems"]))
        entry = points.setdefault(
            key, {"sim_hours": r["sim_hours"], "engines": {}})
        encoded = bool(r["encode_in_flight"])
        entry["engines"][engine_name(encoded)] = {
            "encode_in_flight": encoded,
            "wall_seconds": round(r["wall_seconds"], 1),
            "peak_rss_mb": round(r["peak_rss_bytes"] / 1e6, 1),
            "events_executed": int(r["events_executed"]),
            "events_per_second": int(r["events_per_second"]),
        }
    out = {
        "benchmark": "sim_scale",
        "description": (
            "Fig-9-style run (Farsite churn trace, paper query at T/4): "
            "wall-clock and peak RSS vs population on the serial engine, "
            "in-flight messages held live (serial_live) vs as encoded wire "
            "bytes (serial_encoded). Forked child per configuration so "
            "ru_maxrss is per-config. Reproduce: "
            "SEAWEED_BENCH_OUT=raw.json ./build-rel/bench/sim_scale, then "
            "scripts/sim_scale_to_json.py raw.json (see EXPERIMENTS.md)."
        ),
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "num_cpus": os.cpu_count(),
            "mhz_per_cpu": cpu_mhz(),
            "build_type": "RelWithDebInfo",
        },
        "points": dict(sorted(points.items(), key=lambda kv: int(kv[0]))),
    }
    if len(sys.argv) > 2:
        out["notes"] = " ".join(sys.argv[2:])
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
