#!/usr/bin/env python3
"""Converts bench/query_load raw ResultWriter output into BENCH_query_load.json.

Usage: scripts/query_load_to_json.py <raw.json> [note...] > BENCH_query_load.json

Extra arguments are joined into a free-form "notes" field.

The raw file is what SEAWEED_BENCH_OUT captures: a "load" table with one
row per arrival rate. The committed form keys the rows by rate.
"""
import datetime
import json
import sys


def main() -> None:
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    table = raw["tables"]["load"]
    cols = table["columns"]
    rates: dict = {}
    for row in table["rows"]:
        r = dict(zip(cols, row))
        rates[f"{r['rate_qps']:g}"] = {
            "endsystems": int(r["endsystems"]),
            "window_s": r["window_s"],
            "arrivals": int(r["arrivals"]),
            "injected": int(r["injected"]),
            "shed": int(r["shed"]),
            "completed90": int(r["completed90"]),
            "p50_ttfp_ms": round(r["p50_ttfp_ms"], 1),
            "p99_ttfp_ms": round(r["p99_ttfp_ms"], 1),
            "p50_tt90_ms": round(r["p50_tt90_ms"], 1),
            "p99_tt90_ms": round(r["p99_tt90_ms"], 1),
            "dissem_bytes_per_query": round(r["dissem_bytes_per_query"], 1),
            "query_tx_bytes_avg": round(r["query_tx_bytes_avg"], 1),
        }
    out = {
        "benchmark": "query_load",
        "description": (
            "Open-loop Poisson arrivals of mixed point/range/GROUP BY "
            "queries over Anemone on a fully-online cluster; per-query "
            "time-to-first-predictor and time-to-90%-complete percentiles, "
            "and per-query dissemination bytes (bw.tx.dissemination). "
            "Reproduce: "
            "SEAWEED_BENCH_OUT=raw.json ./build/bench/query_load, then "
            "scripts/query_load_to_json.py raw.json (see EXPERIMENTS.md)."
        ),
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "build_type": "RelWithDebInfo",
        },
        "rates": dict(sorted(rates.items(), key=lambda kv: float(kv[0]))),
    }
    if len(sys.argv) > 2:
        out["notes"] = " ".join(sys.argv[2:])
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
