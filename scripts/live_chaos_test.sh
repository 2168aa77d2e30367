#!/usr/bin/env bash
# Live-cluster fault tolerance differential: a 4-shard loopback cluster runs
# with datagram fault injection (`--transport faulty:<plan>` stacked on the
# real UDP sockets), one shard is SIGKILLed mid-query and restarted with
# --rejoin, and the streaming client is forcibly disconnected — and the
# FINAL aggregates must still be byte-identical to the in-memory simulation
# (`seaweedd --reference`) for the same seed and dataset.
#
# Phases:
#   1. baseline query under continuous 5% loss + delay jitter — faults
#      alone change no output byte
#   2. chaos mid-query: SIGKILL a victim shard as soon as the query is
#      submitted, restart it with --rejoin (same seed/epoch), and sever the
#      client's control connection with drop-clients; the client must
#      reconnect + resubscribe and the query must complete exactly
#   3. server gone for good: SIGKILL the client's own shard mid-query and
#      restart it without the query — the client's resubscribe is refused
#      and it must exit 4 (distinguishable from timeout=1 and violation=3)
#
# The CLI enforces never-overcount and predictor monotonicity itself (exit
# 3), so every phase that completes is also a safety check. After a clean
# shutdown the obs dumps must show the chaos actually happened:
# net.fault.* counters on every shard, net.rejoins on the restarted ones,
# and net.tx_fragmented somewhere (the GROUP BY result is oversized).
#
# Usage: scripts/live_chaos_test.sh [BUILD_DIR]   (BUILD_DIR: "build")
# Env:
#   SEAWEED_CHAOS_BASE_PORT       first UDP port (control = BASE+100..);
#                                 probed candidates when unset
#   SEAWEED_CHAOS_JOIN_TIMEOUT_S  bring-up budget (default 90)
#   SEAWEED_CHAOS_QUERY_TIMEOUT_S per-query budget (default 180)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
N=12
SHARDS=4
SEED=7
JOIN_TIMEOUT_S="${SEAWEED_CHAOS_JOIN_TIMEOUT_S:-90}"
QUERY_TIMEOUT_S="${SEAWEED_CHAOS_QUERY_TIMEOUT_S:-180}"
SQL="SELECT App, COUNT(*), SUM(Bytes), MIN(Bytes), MAX(Bytes) FROM Flow GROUP BY App"
# Oversized on the wire (~5.5k groups): exercises fragmentation under loss.
BIG_SQL="SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort"
# Pins BIG_SQL's query id, and with it which endsystems send its oversized
# results (endsystem e runs on shard e % SHARDS). With this salt the tree
# root is endsystem 5 on shard 1, so every root delivery of the full result
# to the origin (endsystem 0, shard 0) is fragmented on shard 1. Shard 1 is
# never killed, so its dump at clean shutdown shows the fragmentation. An
# unpinned id hashes the injection time, and its senders were often on
# shards the harness kills, whose dumps die with them.
BIG_SALT="chaos-big"
source scripts/live_lib.sh
live_pick_base_port "${SEAWEED_CHAOS_BASE_PORT:-}" \
    19900 20160 20420 20680 20940

WORK="$BUILD/live_chaos"
rm -rf "$WORK"
mkdir -p "$WORK"

# Continuous, seeded faults: every datagram the whole run faces 5% extra
# loss plus 5-15ms of added one-way delay. No crash epochs — live clusters
# have no up/down oracle; real SIGKILL below plays that part.
PLAN="$WORK/plan.json"
cat > "$PLAN" <<'EOF'
{
  "seed": 42,
  "bursts": [ {"start_s": 0, "end_s": 86400, "loss": 0.05} ],
  "delays": [ {"start_s": 0, "end_s": 86400, "extra_s": 0.005, "jitter_s": 0.01} ]
}
EOF

# All shards (and every restart) must share one epoch: fault windows and
# availability-model timestamps are anchored to Now()==0 at that instant.
EPOCH_US=$(( $(date +%s) * 1000000 ))

# Starts (or restarts) shard $1; extra flags pass through. The obs dump and
# logs get a generation suffix so a restart never clobbers the first life's
# files.
GEN=0
start_shard() {
  local shard=$1
  shift
  GEN=$((GEN + 1))
  "$DAEMON" --endsystems "$N" --shards "$SHARDS" --shard "$shard" \
      --base-port "$BASE_PORT" --seed "$SEED" --epoch-us "$EPOCH_US" \
      --profile fast --transport "faulty:$PLAN" \
      --obs-dump "$WORK/obs_shard${shard}_gen$GEN.jsonl" "$@" \
      > "$WORK/shard${shard}_gen$GEN.out" 2> "$WORK/shard${shard}_gen$GEN.err" &
  LIVE_PIDS[$shard]=$!
}

wait_joined() {
  live_wait_joined "$BASE_PORT" "$JOIN_TIMEOUT_S" "$WORK"/shard*_gen*.err
}

echo "--- reference: in-memory simulation, N=$N seed=$SEED ---"
"$DAEMON" --reference --endsystems "$N" --seed "$SEED" --query "$SQL" \
    > "$WORK/reference.out"
"$DAEMON" --reference --endsystems "$N" --seed "$SEED" --query "$BIG_SQL" \
    --salt "$BIG_SALT" > "$WORK/reference_big.out"
cat "$WORK/reference.out"

echo "--- bring-up: $SHARDS shards under faulty udp (base $BASE_PORT, plan $PLAN) ---"
for (( shard = 0; shard < SHARDS; shard++ )); do
  start_shard "$shard"
done
wait_joined

echo "--- phase 1: baseline query under 5% loss + delay jitter ---"
"$CLI" --port $((BASE_PORT + 100)) --timeout-s "$QUERY_TIMEOUT_S" \
    query "$SQL" > "$WORK/phase1.out" 2> "$WORK/phase1.err"
if ! diff -u "$WORK/reference.out" "$WORK/phase1.out"; then
  echo "FAIL: faulty-transport aggregate differs from the simulation" >&2
  exit 1
fi
if ! grep -q "^PREDICTOR " "$WORK/phase1.err"; then
  echo "FAIL: no completeness-predictor event under faults" >&2
  exit 1
fi
echo "baseline under faults byte-identical"

echo "--- phase 2: SIGKILL shard mid-query, --rejoin restart, client drop ---"
# The victim must be neither shard 0 (the client's control port) nor the
# query's origin shard; with origin on shard 0 any other shard works.
VICTIM=2
"$CLI" --port $((BASE_PORT + 100)) --timeout-s "$QUERY_TIMEOUT_S" \
    --salt "$BIG_SALT" query "$BIG_SQL" \
    > "$WORK/phase2.out" 2> "$WORK/phase2.err" &
QPID=$!

# Kill the instant the query exists: exec_delay alone keeps it in flight.
for (( i = 0; i < 200; i++ )); do
  grep -q "query_id=" "$WORK/phase2.err" 2>/dev/null && break
  if ! kill -0 "$QPID" 2>/dev/null; then break; fi
  sleep 0.05
done
if ! grep -q "query_id=" "$WORK/phase2.err"; then
  echo "FAIL: phase 2 query was never submitted" >&2
  cat "$WORK/phase2.err" >&2 || true
  exit 1
fi
kill -9 "${LIVE_PIDS[$VICTIM]}" 2>/dev/null
wait "${LIVE_PIDS[$VICTIM]}" 2>/dev/null || true
echo "SIGKILLed shard $VICTIM (pid ${LIVE_PIDS[$VICTIM]}) mid-query"

sleep 1
start_shard "$VICTIM" --rejoin
echo "restarted shard $VICTIM with --rejoin (pid ${LIVE_PIDS[$VICTIM]})"

# While the cluster heals, also sever the streaming client's connection:
# it must reconnect and resubscribe on its own.
sleep 1
"$CLI" --port $((BASE_PORT + 100)) drop-clients >/dev/null
echo "dropped every control client on shard 0"

RC=0
wait "$QPID" || RC=$?
if [[ $RC -ne 0 ]]; then
  # 3 = never-overcount / monotonicity violation; 4 = gave up reconnecting.
  echo "FAIL: chaos query exited $RC" >&2
  cat "$WORK/phase2.err" >&2 || true
  exit 1
fi
if ! diff -u "$WORK/reference_big.out" "$WORK/phase2.out"; then
  echo "FAIL: post-chaos aggregate differs from the simulation" >&2
  exit 1
fi
if ! grep -q "reconnected" "$WORK/phase2.err"; then
  echo "FAIL: client never reconnected after drop-clients" >&2
  cat "$WORK/phase2.err" >&2 || true
  exit 1
fi
echo "chaos query survived kill+rejoin+client-drop, byte-identical"

echo "--- phase 3: client's own shard restarted without the query -> exit 4 ---"
"$CLI" --port $((BASE_PORT + 100)) --timeout-s "$QUERY_TIMEOUT_S" \
    --max-reconnect-s 60 \
    query "$SQL" > "$WORK/phase3.out" 2> "$WORK/phase3.err" &
QPID=$!
for (( i = 0; i < 200; i++ )); do
  grep -q "query_id=" "$WORK/phase3.err" 2>/dev/null && break
  if ! kill -0 "$QPID" 2>/dev/null; then break; fi
  sleep 0.05
done
kill -9 "${LIVE_PIDS[0]}" 2>/dev/null
wait "${LIVE_PIDS[0]}" 2>/dev/null || true
start_shard 0 --rejoin
RC=0
wait "$QPID" || RC=$?
if [[ $RC -ne 4 ]]; then
  echo "FAIL: expected exit 4 (server gone for good), got $RC" >&2
  cat "$WORK/phase3.err" >&2 || true
  exit 1
fi
echo "client distinguished a restarted daemon that lost its query (exit 4)"
wait_joined

echo "--- clean shutdown + counter audit ---"
live_stop_shards "$BASE_PORT"

# Every surviving shard's dump must show injected faults; the restarted
# lives must show net.rejoins; fragmentation must have happened somewhere.
# A counter merely being registered is not enough — its value must be > 0.
audit() {
  local prefix=$1 what=$2
  shift 2
  if ! python3 - "$prefix" "$@" <<'EOF'
import json, sys
prefix = sys.argv[1]
for path in sys.argv[2:]:
    with open(path) as f:
        for line in f:
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if (row.get("kind") == "counter"
                    and row.get("name", "").startswith(prefix)
                    and row.get("value", 0) > 0):
                sys.exit(0)
sys.exit(1)
EOF
  then
    echo "FAIL: no obs dump shows $what (counter ${prefix}* > 0)" >&2
    exit 1
  fi
}
shopt -s nullglob
DUMPS=("$WORK"/obs_shard*_gen*.jsonl)
if [[ ${#DUMPS[@]} -lt $SHARDS ]]; then
  echo "FAIL: expected at least $SHARDS obs dumps, found ${#DUMPS[@]}" >&2
  exit 1
fi
audit 'net.fault.' "injected datagram faults" "${DUMPS[@]}"
audit 'net.rejoins' "a warm re-join" "${DUMPS[@]}"
audit 'net.tx_fragmented' "datagram fragmentation" "${DUMPS[@]}"
# The drop-clients chaos op must be visible server-side too.
audit 'server.clients_disconnected' "forced client disconnects" "${DUMPS[@]}"
echo "fault, rejoin, fragmentation, and disconnect counters all present"

echo "live chaos test passed"
