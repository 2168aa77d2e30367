#!/usr/bin/env bash
# Full pre-merge check: builds the default configuration and the
# ASan+UBSan configuration, runs the complete test suite under both, and
# runs the differentials under both: serializing-transport and two chaos
# replays. Each differential also requires that its runs exercised what it
# is about: re-propagated vertices (seaweed.vertex_repropagations > 0 in
# their obs dumps) and, under the heavier chaos plan, leaf and vertex
# give-ups (seaweed.leaf_giveups, seaweed.vertex_giveups); and that no
# dissemination range was cut short (seaweed.dissem_guard_trips == 0).
#
# Usage: scripts/check.sh [extra ctest args...]
#
# SEAWEED_SCALE_SMOKE=1 additionally runs the 10^5-endsystem scale smoke
# (encoded in-flight messages) with a wall-clock budget; CI's scale job sets
# it.
# SEAWEED_LOAD_SMOKE=1 additionally runs the open-loop query-load smoke
# (bench/query_load, capped rates) on both trees; CI's load job sets it.
# SEAWEED_LIVE_CHAOS=1 additionally runs the process-level chaos harness
# (scripts/live_chaos_test.sh: SIGKILL + --rejoin + client failover under a
# faulty-udp plan) on the default tree; CI's live-chaos job sets it.
set -euo pipefail

cd "$(dirname "$0")/.."

# A differential that silently skips because its binary was never built is a
# green light lying about coverage; missing binaries fail the whole check.
require_binary() {
  if [[ ! -x "$1" ]]; then
    echo "FAIL: required binary '$1' is missing or not executable" >&2
    echo "      (differential cannot run; check the build step above)" >&2
    exit 1
  fi
}

# Fails unless the obs dump $1 holds a counter $2 greater than zero: a
# differential whose run never exercised a mechanism says nothing about it.
require_counter() {
  local dump="$1" name="$2" value
  value=$(grep -o "\"name\":\"$name\",\"value\":[0-9]*" "$dump" |
          grep -o '[0-9]*$' || true)
  if [[ -z "$value" || "$value" -eq 0 ]]; then
    echo "FAIL: counter $name is ${value:-missing} in $dump" >&2
    exit 1
  fi
  echo "$name = $value"
}

# Fails unless the obs dump $1 holds a counter $2 equal to zero: an event
# that must never happen in a simulated run.
require_zero_counter() {
  local dump="$1" name="$2" value
  value=$(grep -o "\"name\":\"$name\",\"value\":[0-9]*" "$dump" |
          grep -o '[0-9]*$' || true)
  if [[ "$value" != "0" ]]; then
    echo "FAIL: counter $name is ${value:-missing} in $dump (want 0)" >&2
    exit 1
  fi
  echo "$name = 0"
}

# Runs one simulation twice within the SAME build tree — once over the
# in-memory transport, once with every message encoded to bytes and decoded
# back in flight — and asserts bit-identical stdout and obs dumps. Comparing
# across build trees would be invalid (floating-point results differ by
# optimization level), so each build checks against itself.
differential() {
  local build="$1"
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local flags=(--endsystems 60 --hours 2 --seed 7
               --query "SELECT COUNT(*), SUM(Bytes) FROM Flow")
  echo "--- serializing-transport differential ($build) ---"
  "$simbin" "${flags[@]}" --obs-dump "$build/sim_mem.jsonl" \
      > "$build/sim_mem.out"
  "$simbin" "${flags[@]}" --transport serializing \
      --obs-dump "$build/sim_ser.jsonl" > "$build/sim_ser.out"
  if ! diff -u "$build/sim_mem.out" "$build/sim_ser.out"; then
    echo "FAIL: serializing transport changed simulation output" >&2
    exit 1
  fi
  if ! cmp "$build/sim_mem.jsonl" "$build/sim_ser.jsonl"; then
    echo "FAIL: serializing transport changed the obs dump" >&2
    exit 1
  fi
  echo "outputs and obs dumps bit-identical"
  # The periodic refresh must have re-propagated vertices on both sides.
  require_counter "$build/sim_mem.jsonl" seaweed.vertex_repropagations
  require_counter "$build/sim_ser.jsonl" seaweed.vertex_repropagations
  require_zero_counter "$build/sim_mem.jsonl" seaweed.dissem_guard_trips
  require_zero_counter "$build/sim_ser.jsonl" seaweed.dissem_guard_trips
}

# Two fault plans for chaos_replay. CHAOS_PLAN mixes a 20% loss burst,
# delays, a partition and a crash, and makes the result plane retry.
# GIVEUP_PLAN holds 70% loss from before the query's injection (1,800 s)
# to 3,600 s, longer than a submit's whole retry chain (~12.5 min), so
# leaves and vertices give up, and the dissemination refresh re-teaches
# subtrees the burst cut off.
CHAOS_PLAN='{
  "seed": 99,
  "bursts": [{"start_s": 1200, "end_s": 2400, "loss": 0.2}],
  "delays": [{"start_s": 1500, "end_s": 2100, "extra_s": 0.2, "jitter_s": 0.3}],
  "partitions": [{"start_s": 1600, "end_s": 2300, "fraction": 0.3}],
  "crashes": [{"endsystem": 5, "down_s": 3000, "up_s": 3600}]
}'
GIVEUP_PLAN='{
  "seed": 99,
  "bursts": [{"start_s": 1700, "end_s": 3600, "loss": 0.7}],
  "crashes": [{"endsystem": 5, "down_s": 3000, "up_s": 3600}]
}'

# Runs the same chaos simulation twice through the full decorator stack
# (wire codec + fault injection from the JSON plan $3, named $2) and asserts
# bit-identical stdout and obs dumps: the deterministic-replay guarantee, end
# to end through simctl. Every counter named after the plan must be > 0 in both
# runs' dumps, and seaweed.dissem_guard_trips 0.
chaos_replay() {
  local build="$1" name="$2" plan_json="$3"
  shift 3
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local plan="$build/${name}_plan.json"
  printf '%s\n' "$plan_json" > "$plan"
  local flags=(--endsystems 60 --hours 2 --seed 7
               --transport "serializing,faulty:$plan"
               --query "SELECT COUNT(*), SUM(Bytes) FROM Flow")
  echo "--- $name replay determinism ($build) ---"
  "$simbin" "${flags[@]}" --obs-dump "$build/sim_${name}_a.jsonl" \
      > "$build/sim_${name}_a.out"
  "$simbin" "${flags[@]}" --obs-dump "$build/sim_${name}_b.jsonl" \
      > "$build/sim_${name}_b.out"
  if ! diff -u "$build/sim_${name}_a.out" "$build/sim_${name}_b.out"; then
    echo "FAIL: $name run is not seed-deterministic" >&2
    exit 1
  fi
  if ! cmp "$build/sim_${name}_a.jsonl" "$build/sim_${name}_b.jsonl"; then
    echo "FAIL: $name replay changed the obs dump" >&2
    exit 1
  fi
  echo "replays and obs dumps bit-identical"
  local counter
  for counter in "$@"; do
    require_counter "$build/sim_${name}_a.jsonl" "$counter"
    require_counter "$build/sim_${name}_b.jsonl" "$counter"
  done
  require_zero_counter "$build/sim_${name}_a.jsonl" seaweed.dissem_guard_trips
  require_zero_counter "$build/sim_${name}_b.jsonl" seaweed.dissem_guard_trips
}

# Sketch smoke: the documented accuracy floors (HLL relative error <= 2%
# at 10^5 distinct values, quantile rank error <= 1%) re-asserted straight
# from the test binary, plus a serializing-transport differential over a
# query mixing all three sketch functions — sketch states are deterministic
# given the tree shape, and the simulation's tree IS deterministic, so the
# codec must not change one byte.
sketch_smoke() {
  local build="$1"
  local testbin="$build/tests/sketch_test"
  local simbin="$build/examples/simctl"
  require_binary "$testbin"
  require_binary "$simbin"
  echo "--- sketch smoke ($build) ---"
  "$testbin" --gtest_brief=1 --gtest_filter='HllSketchTest.RelativeErrorUnderTwoPercentAt1e5Distinct:QuantileSketchTest.RankErrorUnderOnePercent:MergePropertyTest.*'
  local flags=(--endsystems 60 --hours 2 --seed 7
               --query "SELECT DISTINCT_APPROX(SrcPort), QUANTILE(Bytes, 0.9), TOPK(App, 3) FROM Flow")
  "$simbin" "${flags[@]}" > "$build/sim_sketch_mem.out"
  "$simbin" "${flags[@]}" --transport serializing > "$build/sim_sketch_ser.out"
  if ! diff -u "$build/sim_sketch_mem.out" "$build/sim_sketch_ser.out"; then
    echo "FAIL: serializing transport changed sketch query output" >&2
    exit 1
  fi
  echo "sketch outputs bit-identical through the wire codec"
}

# Multi-process loopback differential: 3 seaweedd shards over real UDP
# sockets must answer a GROUP BY query with the exact bytes the in-memory
# simulation produces for the same seed and dataset, with a monotone
# completeness-predictor stream (scripts/loopback_test.sh). Each build tree
# gets its own port range so the stages cannot collide.
loopback_smoke() {
  local build="$1" base_port="$2"
  require_binary "$build/tools/seaweedd"
  require_binary "$build/tools/seaweed-cli"
  echo "--- multi-process loopback differential ($build) ---"
  SEAWEED_LOOPBACK_BASE_PORT="$base_port" scripts/loopback_test.sh "$build"
}

# Process-level chaos harness: 4 seaweedd shards over faulty UDP (5% loss +
# delay jitter), one SIGKILLed mid-query and restarted with --rejoin, every
# control client force-dropped, the client's own shard killed under it.
# Asserts never-overcount, a monotone predictor, FINAL byte-identical to the
# reference simulation, and a working exit-code-4 "server lost my query"
# path. Wall-clock bounded; gated behind SEAWEED_LIVE_CHAOS because it costs
# minutes on a loaded machine.
live_chaos() {
  local build="$1" base_port="$2"
  require_binary "$build/tools/seaweedd"
  require_binary "$build/tools/seaweed-cli"
  local budget="${SEAWEED_LIVE_CHAOS_BUDGET_S:-600}"
  echo "--- live chaos harness ($build, budget ${budget}s) ---"
  SEAWEED_CHAOS_BASE_PORT="$base_port" timeout "$budget" \
      scripts/live_chaos_test.sh "$build" || {
    echo "FAIL: live chaos harness exceeded ${budget}s or failed" >&2
    exit 1
  }
}

# 10^5-endsystem smoke: completes within the wall-clock budget, encoded
# in-flight messages. Gated behind SEAWEED_SCALE_SMOKE because it costs
# minutes, not seconds.
scale_smoke() {
  local build="$1"
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local budget="${SEAWEED_SCALE_SMOKE_BUDGET_S:-1800}"
  echo "--- scale smoke: 10^5 endsystems (budget ${budget}s) ---"
  local start
  start=$(date +%s)
  timeout "$budget" "$simbin" --endsystems 100000 --hours 0.1 --seed 7 \
      --encode-in-flight \
      > "$build/sim_scale_smoke.out" || {
    echo "FAIL: scale smoke exceeded ${budget}s or crashed" >&2
    exit 1
  }
  echo "completed in $(( $(date +%s) - start ))s"
  tail -2 "$build/sim_scale_smoke.out"
}

# Open-loop load smoke: bench/query_load in SEAWEED_LOAD_SMOKE form
# (48 endsystems, 20 s arrival window, capped rates) with a wall-clock
# budget. $2 narrows the rate list for slow (sanitizer) trees. Gated behind
# SEAWEED_LOAD_SMOKE; CI's load job sets it.
load_smoke() {
  local build="$1" rates="${2:-}" budget="${3:-120}"
  local loadbin="$build/bench/query_load"
  require_binary "$loadbin"
  echo "--- query-load smoke ($build, budget ${budget}s) ---"
  local start
  start=$(date +%s)
  local rate_env=()
  [[ -n "$rates" ]] && rate_env=("SEAWEED_LOAD_RATES=$rates")
  env SEAWEED_LOAD_SMOKE=1 "${rate_env[@]}" \
      SEAWEED_BENCH_OUT="$build/query_load_smoke.json" \
      timeout "$budget" "$loadbin" > "$build/query_load_smoke.out" || {
    echo "FAIL: query-load smoke exceeded ${budget}s or crashed" >&2
    tail -5 "$build/query_load_smoke.out" >&2 || true
    exit 1
  }
  echo "completed in $(( $(date +%s) - start ))s"
  tail -5 "$build/query_load_smoke.out"
  # The converter doubles as a schema check on the machine-readable output.
  scripts/query_load_to_json.py "$build/query_load_smoke.json" smoke \
      > /dev/null
  echo "raw JSON converts cleanly"
}

echo "=== default build (RelWithDebInfo) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
differential build
chaos_replay build chaos "$CHAOS_PLAN" seaweed.vertex_repropagations
chaos_replay build giveup "$GIVEUP_PLAN" seaweed.leaf_giveups \
    seaweed.vertex_giveups
sketch_smoke build
loopback_smoke build 19600
if [[ "${SEAWEED_SCALE_SMOKE:-0}" == "1" ]]; then
  scale_smoke build
fi
if [[ "${SEAWEED_LOAD_SMOKE:-0}" == "1" ]]; then
  load_smoke build "" 120
fi
if [[ "${SEAWEED_LIVE_CHAOS:-0}" == "1" ]]; then
  live_chaos build 19900
fi

echo
echo "=== sanitizer build (ASan + UBSan) ==="
cmake -B build-asan -S . -DSEAWEED_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$(nproc)"
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" "$@"
differential build-asan
chaos_replay build-asan chaos "$CHAOS_PLAN" seaweed.vertex_repropagations
chaos_replay build-asan giveup "$GIVEUP_PLAN" seaweed.leaf_giveups \
    seaweed.vertex_giveups
sketch_smoke build-asan
loopback_smoke build-asan 19620
if [[ "${SEAWEED_LOAD_SMOKE:-0}" == "1" ]]; then
  # Sanitizer instrumentation makes the sweep ~4x slower; one rate is
  # plenty to catch ASan/UBSan findings in the concurrent-query and
  # admission paths.
  load_smoke build-asan 4 360
fi

echo
echo "All checks passed."
