#!/usr/bin/env bash
# Multi-process smoke: three zeusd processes form one cluster over loopback
# TCP (each hosting one view-service replica), take a demo workload, then one
# node is SIGKILLed and restarted against its durable directory — it must be
# auto-failed out of the view by the surviving ensemble and rejoin through
# WAL recovery + reclaim, and then take ownership of the demo object away
# from node 2 through the replicated directory placement. Exercises the whole
# deployment story end to end: bootstrap, shared control plane, one placement
# authority, failure detection, durable restart.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
BIN="$WORK/bin"
mkdir -p "$BIN" "$WORK/data0" "$WORK/data1" "$WORK/data2"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "--- $*"; }
fail() { echo "FAIL: $*"; tail -n 40 "$WORK"/node*.log 2>/dev/null; exit 1; }

log "building zeusd + zeusctl"
go build -o "$BIN/zeusd" ./cmd/zeusd
go build -o "$BIN/zeusctl" ./cmd/zeusctl

VIEW="127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102"
PEERS="0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002"
status() { "$BIN/zeusctl" -view "$VIEW" -timeout 5s status; }
# dir_shards prints N from the "dirs: N shards" line of the last status.
dir_shards() { awk '$1 == "dirs:" && $3 == "shards" {print $2}' "$WORK/status.txt"; }

start_node() { # id view_host extra...
  local id=$1 vh=$2; shift 2
  "$BIN/zeusd" -id "$id" -listen "127.0.0.1:700$id" -view "$VIEW" \
    -view-host "$vh" -peers "$PEERS" -data "$WORK/data$id" \
    -lease 300ms "$@" >"$WORK/node$id.log" 2>&1 &
  PIDS+=($!)
}

log "founding 3-node cluster (each hosting one view replica)"
start_node 0 0
start_node 1 1
start_node 2 2 -demo -obs-addr 127.0.0.1:7202

log "waiting for the ensemble to commit state"
ok=
for _ in $(seq 1 50); do
  if status >"$WORK/status.txt" 2>/dev/null && grep -q 'live:.*\[0 1 2\]' "$WORK/status.txt"; then
    ok=1; break
  fi
  sleep 0.2
done
[ -n "$ok" ] || fail "founders never all live"
cat "$WORK/status.txt"
SHARDS=$(dir_shards)
[ -n "$SHARDS" ] && [ "$SHARDS" -ge 1 ] \
  || fail "status reports no committed directory placement (dirs: '${SHARDS:-}')"
log "committed directory placement: $SHARDS shards"

log "letting the demo workload commit"
ok=
for _ in $(seq 1 50); do
  grep -q "demo: commits=" "$WORK/node2.log" && { ok=1; break; }
  sleep 0.2
done
[ -n "$ok" ] || fail "demo never finished"
grep "demo:" "$WORK/node2.log" | tail -3

log "scraping node 2's observability endpoint"
curl -fsS "http://127.0.0.1:7202/metrics" >"$WORK/metrics.txt" || fail "metrics endpoint unreachable"
committed=$(awk '$1 == "cmt_committed_total" {print $2}' "$WORK/metrics.txt")
[ -n "$committed" ] && [ "$committed" -gt 0 ] \
  || fail "cmt_committed_total missing or zero after the demo workload (got '${committed:-}')"
log "node 2 scraped: cmt_committed_total=$committed"
curl -fsS "http://127.0.0.1:7202/debug/incidents" >"$WORK/incidents.txt" || fail "incidents endpoint unreachable"
grep -q "incidents_total 0" "$WORK/incidents.txt" \
  || fail "healthy demo run reported incidents: $(cat "$WORK/incidents.txt")"
log "fetching per-node watermarks via zeusctl metrics"
"$BIN/zeusctl" -view "$VIEW" -timeout 5s -node 2 metrics | head -2

log "SIGKILL node 1 (its view replica dies with it — quorum of 2 survives)"
kill -9 "${PIDS[1]}"

log "waiting for the ensemble to auto-fail node 1 out of the view"
ok=
for _ in $(seq 1 100); do
  if status >"$WORK/status.txt" 2>/dev/null && grep -q 'live:.*\[0 2\]' "$WORK/status.txt"; then
    ok=1; break
  fi
  sleep 0.2
done
[ -n "$ok" ] || fail "node 1 never auto-failed"
cat "$WORK/status.txt"

log "restarting node 1 from its durable state (-join: rejoin reclaims what it owned)"
"$BIN/zeusd" -id 1 -listen 127.0.0.1:7001 -view "$VIEW" -join -demo \
  -data "$WORK/data1" -lease 300ms >"$WORK/node1.restart.log" 2>&1 &
PIDS+=($!)

log "waiting for node 1 to rejoin the committed view"
ok=
for _ in $(seq 1 100); do
  if status >"$WORK/status.txt" 2>/dev/null \
      && grep -q 'live:.*\[0 1 2\]' "$WORK/status.txt" \
      && grep -q 'barrier:  closed' "$WORK/status.txt"; then
    ok=1; break
  fi
  sleep 0.2
done
[ -n "$ok" ] || { cat "$WORK/node1.restart.log"; fail "node 1 never rejoined"; }
cat "$WORK/status.txt"
[ "$(dir_shards)" = "$SHARDS" ] \
  || fail "directory shard count changed across the rejoin: $SHARDS -> '$(dir_shards)'"

log "waiting for node 1 to finish WAL recovery + reclaim"
ok=
for _ in $(seq 1 100); do
  grep -q "joined" "$WORK/node1.restart.log" && { ok=1; break; }
  sleep 0.2
done
[ -n "$ok" ] || { cat "$WORK/node1.restart.log"; fail "restart never reported its reclaim done"; }
grep "joined" "$WORK/node1.restart.log"

log "waiting for the rejoined node 1 to write object 42 (ownership moves off node 2)"
ok=
for _ in $(seq 1 100); do
  grep -q "demo: committed write" "$WORK/node1.restart.log" && { ok=1; break; }
  sleep 0.2
done
[ -n "$ok" ] || { cat "$WORK/node1.restart.log"; fail "rejoined node 1 never committed a write on object 42"; }
grep "demo:" "$WORK/node1.restart.log" | tail -3

log "smoke OK: bootstrap, replicated placement, auto-fail, durable rejoin, post-rejoin ownership move all verified"
