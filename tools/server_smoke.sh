#!/usr/bin/env bash
# End-to-end smoke of the tnmined server (DESIGN.md §14), run by CI's
# server-smoke job and reproducible locally:
#
#   tools/server_smoke.sh BUILD_DIR OUT_DIR
#
# Exercises the full client-visible contract against a real tnmined
# process over a unix socket:
#   * serial warmup of every distinct mining request (deterministic
#     cache misses), then 32 concurrent mixed requests — cached mining,
#     pings, stats — that must all hit;
#   * the CLI, mining the same snapshot locally, reports what the server
#     answered;
#   * honest outcome labels: complete results cached, a tick-truncated
#     request labeled deadline_exceeded and NOT cached;
#   * a mid-flight client disconnect that cancels its mining without
#     taking the server down;
#   * a snapshot reload that bumps the version and empties the cache;
#   * client retry (--retry) riding through an injected transient
#     connect failure that a retry-less client correctly fails on;
#   * connection-lifecycle accounting (DESIGN.md §15): conn counters in
#     stats, every slot drained before shutdown;
#   * shutdown over the wire, flushing the RunReport to OUT_DIR (the CI
#     job uploads it as an artifact).
#
# Cache counters are asserted exactly: the request schedule is fixed and
# the concurrent phase only replays warmed keys, so hits/misses have one
# correct value. Any drift is a real regression, not noise.
set -euo pipefail

BUILD_DIR=${1:?usage: server_smoke.sh BUILD_DIR OUT_DIR}
OUT_DIR=${2:?usage: server_smoke.sh BUILD_DIR OUT_DIR}
CLI="$BUILD_DIR/tools/tnmine_cli"
TNMINED="$BUILD_DIR/tools/tnmined"
mkdir -p "$OUT_DIR"

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# assert_json FILE PYTHON_EXPR — evaluates the expression with the
# parsed response bound to `r`; prints the document on failure.
assert_json() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
if not eval("(" + sys.argv[2] + ")", {"r": r}):
    json.dump(r, sys.stderr, indent=1)
    sys.exit(f"\nassertion failed: {sys.argv[2]}")
EOF
}

client() { "$CLI" client --connect "$CONNECT" "$@"; }

echo "== generate snapshots"
"$CLI" generate --scale small --seed 7 --out "$WORK/data1.csv"
"$CLI" generate --scale small --seed 8 --out "$WORK/data2.csv"

echo "== start tnmined"
"$TNMINED" --listen "unix:$WORK/tnmined.sock" --data "$WORK/data1.csv" \
  --max-inflight 8 --cache-mb 64 --ready-file "$WORK/ready" \
  --io-timeout-ms 10000 --idle-timeout-ms 30000 \
  --metrics-out "$OUT_DIR/RUNREPORT_server_smoke.json" \
  > "$OUT_DIR/tnmined.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORK/ready" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    cat "$OUT_DIR/tnmined.log" >&2
    echo "tnmined died before becoming ready" >&2
    exit 1
  }
  sleep 0.1
done
CONNECT=$(cat "$WORK/ready")
echo "   ready at $CONNECT"

echo "== serial warmup (5 distinct mining requests, all misses)"
for support in 8 9 10 11; do
  client --op structural --support "$support" --top 3 --threads 2 \
    > "$WORK/warm_$support.json"
  assert_json "$WORK/warm_$support.json" \
    'r["ok"] and r["result"]["outcome"] == "complete" and not r.get("cached")'
done
client --op temporal --support-fraction 0.05 --threads 2 \
  > "$WORK/warm_temporal.json"
assert_json "$WORK/warm_temporal.json" \
  'r["ok"] and r["result"]["outcome"] == "complete" and not r.get("cached")'

echo "== the CLI and the server agree on the same snapshot"
# Against the warmup responses, so the cache counters below stay exact;
# --threads does not change what is mined.
"$CLI" structural --data "$WORK/data1.csv" --support 10 --top 3 \
  > "$WORK/cli_structural.txt"
"$CLI" temporal --data "$WORK/data1.csv" --support-fraction 0.05 \
  > "$WORK/cli_temporal.txt"
python3 - "$WORK" <<'EOF'
import json, re, sys
work = sys.argv[1]
def load(name):
    with open(f"{work}/{name}") as f:
        return f.read()
cli = load("cli_structural.txt")
server = json.loads(load("warm_10.json"))["result"]
count = int(re.match(r"(\d+) frequent pattern classes\n", cli).group(1))
renders = re.split(r"\n#\d+ ", cli)[1:]
if count != server["num_patterns"] or \
        renders != [p["render"] for p in server["patterns"]]:
    sys.exit(f"structural: CLI printed\n{cli}\nserver answered {server}")
cli = load("cli_temporal.txt")
server = json.loads(load("warm_temporal.json"))["result"]
count = int(re.search(r"(\d+) temporally repeated pattern classes", cli)
            .group(1))
if count != server["num_patterns"]:
    sys.exit(f"temporal: CLI printed {count} classes, server "
             f"{server['num_patterns']}")
EOF

echo "== 32 concurrent mixed requests (mining must all be cache hits)"
pids=()
for i in $(seq 0 31); do
  case $((i % 4)) in
    0) client --op structural --support $((8 + i / 4 % 4)) --top 3 \
         --threads 2 > "$WORK/mixed_$i.json" & ;;
    1) client --op temporal --support-fraction 0.05 --threads 2 \
         > "$WORK/mixed_$i.json" & ;;
    2) client --op ping > "$WORK/mixed_$i.json" & ;;
    3) client --op stats > "$WORK/mixed_$i.json" & ;;
  esac
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
for i in $(seq 0 31); do
  case $((i % 4)) in
    0 | 1)
      assert_json "$WORK/mixed_$i.json" \
        'r["ok"] and r["cached"] is True and r["result"]["outcome"] == "complete"'
      ;;
    *) assert_json "$WORK/mixed_$i.json" 'r["ok"]' ;;
  esac
done

echo "== cache counters are exact: 5 warmup misses, 16 concurrent hits"
client --op stats > "$WORK/stats1.json"
assert_json "$WORK/stats1.json" \
  'r["result"]["cache"]["misses"] == 5 and r["result"]["cache"]["hits"] == 16
   and r["result"]["cache"]["entries"] == 5
   and r["result"]["server"]["requests_cancelled"] == 0
   and r["result"]["report"]["counters"]["server/cache_hits"] == 16'

echo "== connection-lifecycle counters are surfaced in stats"
assert_json "$WORK/stats1.json" \
  'r["result"]["server"]["conn_accepted"] >= 38
   and r["result"]["server"]["conn_open"] >= 1
   and r["result"]["server"]["conn_idle_reaped"] == 0
   and r["result"]["server"]["conn_io_timeout"] == 0
   and r["result"]["server"]["conn_bad_frame"] == 0
   and r["result"]["server"]["io_timeout_ms"] == 10000
   and r["result"]["server"]["idle_timeout_ms"] == 30000'

echo "== tick-truncated mining is labeled honestly and not cached"
client --op structural --support 8 --top 3 --threads 2 \
  --max-work-ticks 50 > "$WORK/truncated.json"
assert_json "$WORK/truncated.json" \
  'r["ok"] and r["result"]["outcome"] == "deadline_exceeded" and not r.get("cached")'
client --op stats > "$WORK/stats2.json"
assert_json "$WORK/stats2.json" 'r["result"]["cache"]["entries"] == 5'

echo "== mid-flight disconnect cancels the mining, server survives"
client --op structural --miner gspan --support 2 --max-edges 6 --reps 8 \
  --threads 2 --disconnect-after-ms 300 > /dev/null
for _ in $(seq 1 300); do
  client --op stats > "$WORK/stats3.json"
  if assert_json "$WORK/stats3.json" \
    'r["result"]["server"]["requests_cancelled"] >= 1' 2>/dev/null; then
    break
  fi
  sleep 0.1
done
assert_json "$WORK/stats3.json" \
  'r["result"]["server"]["requests_cancelled"] >= 1
   and r["result"]["server"]["inflight"] == 0'
client --op ping > "$WORK/ping_after.json"
assert_json "$WORK/ping_after.json" 'r["ok"]'

echo "== snapshot reload bumps the version and empties the cache"
client --op load_snapshot --path "$WORK/data2.csv" > "$WORK/reload.json"
assert_json "$WORK/reload.json" \
  'r["ok"] and r["result"]["version"] == 2'
client --op stats > "$WORK/stats4.json"
assert_json "$WORK/stats4.json" \
  'r["result"]["cache"]["entries"] == 0
   and r["result"]["cache"]["invalidations"] == 2
   and r["result"]["snapshot"]["version"] == 2'
client --op structural --support 8 --top 3 --threads 2 \
  > "$WORK/fresh1.json"
assert_json "$WORK/fresh1.json" \
  'r["ok"] and not r.get("cached") and r["result"]["outcome"] == "complete"'
client --op structural --support 8 --top 3 --threads 2 \
  > "$WORK/fresh2.json"
assert_json "$WORK/fresh2.json" 'r["ok"] and r["cached"] is True'

echo "== client --retry rides through an injected transient connect failure"
# The failpoint arms inside the *client* process: its first connect
# attempt fails as if the network blinked, the retry succeeds.
client --op ping --retry 3 --retry-backoff-ms 20 --retry-seed 7 \
  --failpoint wire/connect_fail:io:1 > "$WORK/retry.json"
assert_json "$WORK/retry.json" 'r["ok"]'
# Control: without --retry the same injected failure is fatal, and the
# error names the target address (not a bare "connect failed").
if client --op ping --failpoint wire/connect_fail:io:1 \
    > /dev/null 2> "$WORK/noretry.err"; then
  echo "expected connect failure without --retry" >&2
  exit 1
fi
grep -q "injected failure" "$WORK/noretry.err"
grep -q "$WORK/tnmined.sock" "$WORK/noretry.err"

echo "== every connection slot drains before shutdown"
client --op stats > "$WORK/stats5.json"
# Our own stats connection is the only one open at this point.
assert_json "$WORK/stats5.json" \
  'r["result"]["server"]["conn_open"] == 1
   and r["result"]["server"]["inflight"] == 0
   and r["result"]["server"]["accept_failures"] == 0'

echo "== shutdown over the wire flushes the RunReport"
client --op shutdown > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "tnmined still alive after shutdown request" >&2
  exit 1
fi
wait "$SERVER_PID" || true
SERVER_PID=""
assert_json "$OUT_DIR/RUNREPORT_server_smoke.json" \
  '"server/requests_total" in r["counters"]
   and r["counters"]["server/cache_hits"] >= 17
   and r["counters"]["server/snapshots_loaded"] == 2
   and "server/conn_accepted" in r["counters"]
   and "server/conn_closed" in r["counters"]
   and r["counters"]["server/conn_accepted"]
       == r["counters"]["server/conn_closed"]'

echo "server smoke: OK"
