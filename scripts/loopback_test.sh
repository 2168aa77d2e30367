#!/usr/bin/env bash
# Multi-process loopback differential: starts SHARDS seaweedd processes on
# 127.0.0.1, waits for every endsystem to join the overlay, runs queries
# with integer-valued aggregates through seaweed-cli, and asserts the live
# cluster's FINAL lines are byte-identical to the single-process in-memory
# simulation (`seaweedd --reference`) for the same seed and dataset. The
# CLI itself enforces that the completeness-predictor stream is monotone
# (exit 3 on a violation).
#
# Two phases:
#   1. single query — the baseline differential
#   2. CONCURRENCY queries submitted simultaneously through shard 0's
#      control port — the multi-tenant path, each FINAL diffed against its
#      own --reference run
#
# Integer aggregates (COUNT/SUM/MIN/MAX over int64 columns) are exact under
# any merge order, so the live cluster — whose message arrival order is NOT
# deterministic — must still produce the exact bytes of the simulation.
#
# Sketch aggregates (DISTINCT_APPROX/QUANTILE/TOPK) ride the same
# differential, with one extra ingredient: their bytes are deterministic
# *given the tree shape*, and the tree shape is a pure function of the
# query id = SHA1(sql@injection-time). Every concurrent query is therefore
# submitted with --salt (which replaces the injection time in the hash) on
# both the live and reference sides, pinning the query id — and with it
# the merge tree, whose vertices fold children in sorted-NodeId order — so
# every sketch bit must match no matter when datagrams arrive. Phase 1
# stays unsalted to prove the default time-derived-id path unchanged.
#
# Usage: scripts/loopback_test.sh [BUILD_DIR]
#   BUILD_DIR defaults to "build".
# Env:
#   SEAWEED_LOOPBACK_BASE_PORT  first UDP port (control ports are
#                               BASE+100..BASE+100+SHARDS-1). When unset,
#                               the script probes candidate ranges and picks
#                               the first one that is entirely free, so a
#                               lingering daemon from an aborted run can't
#                               wedge the next one.
#   SEAWEED_LOOPBACK_JOIN_TIMEOUT_S   bring-up budget (default 60)
#   SEAWEED_LOOPBACK_QUERY_TIMEOUT_S  per-query budget (default 120)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
N=12
SHARDS=3
SEED=7
JOIN_TIMEOUT_S="${SEAWEED_LOOPBACK_JOIN_TIMEOUT_S:-60}"
QUERY_TIMEOUT_S="${SEAWEED_LOOPBACK_QUERY_TIMEOUT_S:-120}"
source scripts/live_lib.sh
live_pick_base_port "${SEAWEED_LOOPBACK_BASE_PORT:-}" \
    19600 19860 20120 20380 20640

SQL="SELECT App, COUNT(*), SUM(Bytes), MIN(Bytes), MAX(Bytes) FROM Flow GROUP BY App"

# Mixed point/range/GROUP BY, all integer-exact — the concurrent batch.
# The unfiltered GROUP BY SrcPort (~5.5k groups) encodes past the UDP
# datagram cap: it rides on SocketTransport's fragmentation path and used
# to be impossible on the live path.
CONC_SQL=(
  "SELECT COUNT(*) FROM Flow"
  "SELECT COUNT(*), SUM(Bytes) FROM Flow WHERE Bytes > 20000"
  "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80"
  "SELECT MIN(Bytes), MAX(Bytes) FROM Flow"
  "SELECT App, COUNT(*) FROM Flow GROUP BY App"
  "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow WHERE Bytes > 1000000 GROUP BY SrcPort"
  "SELECT SUM(Packets) FROM Flow WHERE DstPort = 443"
  "SELECT App, SUM(Packets), MIN(Bytes) FROM Flow GROUP BY App"
  "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort"
  "SELECT DISTINCT_APPROX(SrcPort) FROM Flow"
  "SELECT QUANTILE(Bytes, 0.9) FROM Flow"
  "SELECT TOPK(App, 3) FROM Flow"
  "SELECT App, DISTINCT_APPROX(SrcPort), QUANTILE(Bytes, 0.5) FROM Flow GROUP BY App"
)

WORK="$BUILD/loopback"
rm -rf "$WORK"
mkdir -p "$WORK"

echo "--- loopback reference: in-memory simulation, N=$N seed=$SEED ---"
"$DAEMON" --reference --endsystems "$N" --seed "$SEED" --query "$SQL" \
    > "$WORK/reference.out"
cat "$WORK/reference.out"
for i in "${!CONC_SQL[@]}"; do
  "$DAEMON" --reference --endsystems "$N" --seed "$SEED" \
      --query "${CONC_SQL[$i]}" --salt "lb-q$i" > "$WORK/ref_q$i.out"
done

# Starts SHARDS daemons on $1 (udp base port; control ports $1+100..),
# dumping obs JSONL with prefix $2, and blocks until every endsystem joins.
start_shards() {
  local base=$1 obs_prefix=$2
  # All shards must agree on the wall-clock epoch or their Transport::Now()
  # values (and therefore trace timestamps) diverge.
  local epoch_us=$(( $(date +%s) * 1000000 ))
  local shard
  for (( shard = 0; shard < SHARDS; shard++ )); do
    "$DAEMON" --endsystems "$N" --shards "$SHARDS" --shard "$shard" \
        --base-port "$base" --seed "$SEED" --epoch-us "$epoch_us" \
        --profile fast --obs-dump "$WORK/${obs_prefix}$shard.jsonl" \
        > "$WORK/${obs_prefix}$shard.out" 2> "$WORK/${obs_prefix}$shard.err" &
    LIVE_PIDS[$shard]=$!
  done
  live_wait_joined "$base" "$JOIN_TIMEOUT_S" "$WORK/${obs_prefix}"*.err
}

# Submits every CONC_SQL query concurrently through shard 0 of the cluster
# on udp base port $1 and diffs each FINAL against its reference. Output
# files in $WORK are named with prefix $2.
run_concurrent() {
  local base=$1 prefix=$2
  local qpids=() i rc fail=0
  for i in "${!CONC_SQL[@]}"; do
    "$CLI" --port $((base + 100)) --timeout-s "$QUERY_TIMEOUT_S" \
        --salt "lb-q$i" query "${CONC_SQL[$i]}" \
        > "$WORK/${prefix}_q$i.out" 2> "$WORK/${prefix}_q$i.err" &
    qpids+=($!)
  done
  for i in "${!CONC_SQL[@]}"; do
    rc=0
    wait "${qpids[$i]}" || rc=$?
    if [[ $rc -ne 0 ]]; then
      # Exit 3 from the CLI means the predictor stream went backwards.
      echo "FAIL: concurrent query $i exited $rc: ${CONC_SQL[$i]}" >&2
      cat "$WORK/${prefix}_q$i.err" >&2 || true
      fail=1
    fi
  done
  [[ $fail -eq 0 ]] || exit 1
  for i in "${!CONC_SQL[@]}"; do
    if ! diff -u "$WORK/ref_q$i.out" "$WORK/${prefix}_q$i.out"; then
      echo "FAIL: concurrent query $i differs from the reference: ${CONC_SQL[$i]}" >&2
      fail=1
    fi
  done
  [[ $fail -eq 0 ]] || exit 1
  # The delay-aware half of the protocol must show up under concurrency
  # too. Predictor delivery is best-effort (a single unacked datagram per
  # update), so require it for the batch, not per query.
  if ! grep -lq "^PREDICTOR " "$WORK/${prefix}"_q*.err; then
    echo "FAIL: no completeness-predictor event reached any concurrent client" >&2
    exit 1
  fi
  echo "${#CONC_SQL[@]} concurrent FINAL lines byte-identical to reference"
}

echo "--- phase 1: $SHARDS shards (udp $BASE_PORT+, control $((BASE_PORT + 100))+), single query ---"
start_shards "$BASE_PORT" obs_shard

# Exit 3 from the CLI means the predictor stream went backwards — that is a
# hard failure; let it propagate through set -e.
"$CLI" --port $((BASE_PORT + 100)) --timeout-s "$QUERY_TIMEOUT_S" \
    query "$SQL" > "$WORK/live.out" 2> "$WORK/live.err"
cat "$WORK/live.err" >&2
cat "$WORK/live.out"
# The delay-aware half of the protocol must actually show up: at least one
# completeness-predictor event on the stream, not just the final aggregate.
if ! grep -q "^PREDICTOR " "$WORK/live.err"; then
  echo "FAIL: no completeness-predictor event reached the client" >&2
  exit 1
fi

echo "--- differential: live cluster vs in-memory simulation ---"
if ! diff -u "$WORK/reference.out" "$WORK/live.out"; then
  echo "FAIL: live cluster aggregate differs from the in-memory simulation" >&2
  exit 1
fi
echo "aggregates byte-identical"

echo "--- phase 2: ${#CONC_SQL[@]} concurrent queries through shard 0 ---"
run_concurrent "$BASE_PORT" live
live_stop_shards "$BASE_PORT"

for (( shard = 0; shard < SHARDS; shard++ )); do
  if [[ ! -s "$WORK/obs_shard$shard.jsonl" ]]; then
    echo "FAIL: shard $shard wrote no obs JSONL on shutdown" >&2
    exit 1
  fi
done
echo "obs JSONL dumped for all shards"

echo "loopback test passed"
