# Process management shared by the live loopback harnesses
# (scripts/loopback_test.sh and scripts/live_chaos_test.sh).
#
# Source it from the repository root after setting BUILD (the build tree),
# N (endsystems) and SHARDS. It sets DAEMON and CLI, fails unless both are
# built, and installs a trap that kills every shard in LIVE_PIDS (indexed
# by shard) on exit, with `kill -9` after a 5 s grace period: an orphaned
# daemon would hold the port range against the next run.

DAEMON="$BUILD/tools/seaweedd"
CLI="$BUILD/tools/seaweed-cli"
for bin in "$DAEMON" "$CLI"; do
  if [[ ! -x "$bin" ]]; then
    echo "FAIL: required binary '$bin' is missing (build the '$BUILD' tree first)" >&2
    exit 1
  fi
done

LIVE_PIDS=()
live_cleanup() {
  local pid deadline
  for pid in "${LIVE_PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  deadline=$(( $(date +%s) + 5 ))
  for pid in "${LIVE_PIDS[@]:-}"; do
    while kill -0 "$pid" 2>/dev/null && [[ $(date +%s) -lt $deadline ]]; do
      sleep 0.2
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
}
trap live_cleanup EXIT INT TERM

# True when every UDP and TCP port the shards need at base port $1 can be
# bound right now (udp BASE.., control BASE+100..). The control listener
# binds with SO_REUSEADDR, so the probe does too: connections a previous
# run left in TIME-WAIT do not make a range busy.
ports_free() {
  python3 - "$1" "$SHARDS" <<'EOF'
import socket, sys
base, shards = int(sys.argv[1]), int(sys.argv[2])
socks = []
try:
    for s in range(shards):
        u = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        u.bind(("127.0.0.1", base + s))
        socks.append(u)
        t = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        t.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        t.bind(("127.0.0.1", base + 100 + s))
        socks.append(t)
except OSError:
    sys.exit(1)
finally:
    for s in socks:
        s.close()
EOF
}

# Sets BASE_PORT to $1 when it is non-empty (failing if that range is
# busy), else to the first entirely free range among the candidates $2...,
# so a lingering daemon from an aborted run can't wedge the next one.
live_pick_base_port() {
  local requested=$1 cand
  shift
  if [[ -n "$requested" ]]; then
    if ! ports_free "$requested"; then
      echo "FAIL: requested port range at $requested is busy" >&2
      exit 1
    fi
    BASE_PORT="$requested"
    return
  fi
  for cand in "$@"; do
    if ports_free "$cand"; then
      BASE_PORT="$cand"
      return
    fi
    echo "port range at $cand is busy; trying the next candidate" >&2
  done
  echo "FAIL: no free loopback port range found" >&2
  exit 1
}

# Bring-up barrier: sums the `joined` gauges of the shards on udp base
# port $1 until all N endsystems are in the overlay. Fails when a shard
# exits or $2 seconds pass, showing the tails of the log files $3...
live_wait_joined() {
  local base=$1 timeout_s=$2
  shift 2
  local deadline=$(( $(date +%s) + timeout_s ))
  local total line shard pid
  while :; do
    for pid in "${LIVE_PIDS[@]}"; do
      if ! kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: a seaweedd shard exited during bring-up" >&2
        tail -5 "$@" >&2 || true
        exit 1
      fi
    done
    total=0
    for (( shard = 0; shard < SHARDS; shard++ )); do
      line=$("$CLI" --port $((base + 100 + shard)) stats 2>/dev/null) || line=""
      if [[ -n "$line" ]]; then
        total=$(( total + $(python3 -c \
            'import json,sys; print(json.load(sys.stdin).get("joined", 0))' \
            <<< "$line") ))
      fi
    done
    if [[ "$total" -eq "$N" ]]; then
      echo "all $N endsystems joined"
      return 0
    fi
    if [[ $(date +%s) -ge $deadline ]]; then
      echo "FAIL: only $total/$N endsystems joined within ${timeout_s}s" >&2
      tail -5 "$@" >&2 || true
      exit 1
    fi
    sleep 0.5
  done
}

# Clean shutdown of the shards on udp base port $1 through their control
# ports, so --obs-dump files get written; reaps them and empties LIVE_PIDS.
live_stop_shards() {
  local base=$1 shard pid
  for (( shard = 0; shard < SHARDS; shard++ )); do
    "$CLI" --port $((base + 100 + shard)) shutdown >/dev/null 2>&1 || true
  done
  for pid in "${LIVE_PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  LIVE_PIDS=()
}
