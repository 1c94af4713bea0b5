#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test for the distributed PartServe
# cluster (coordinator + partworker fleet).
#
# Boots partserved in coordinator mode with three partworker processes,
# checks /v1/cluster and the replica read path, then SIGKILLs the worker
# owning unit-0 and folds an add_graph update (a full re-mine) through
# the degraded fleet. The mined pattern set must stay byte-identical to
# a single-node partserved folding the same update — the cluster is a
# deployment of PartMiner, never a different algorithm — and the
# coordinator must report the failover (reassignments, then the death
# once heartbeats lapse). First, one partworker started without -join —
# the worker a fixed-address fleet (partminer.DialWorkers) dials — must
# serve its probes and metrics and stop cleanly on SIGTERM. Run via
# `make cluster-smoke`; part of `make check`.
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
SRV_PID=""
SOLO_PID=""
W1_PID=""
W2_PID=""
W3_PID=""
W0_PID=""
cleanup() {
    for pid in "$SRV_PID" "$SOLO_PID" "$W0_PID" "$W1_PID" "$W2_PID" "$W3_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "$SRV_PID" "$SOLO_PID" "$W0_PID" "$W1_PID" "$W2_PID" "$W3_PID"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "cluster-smoke: $*"; }

die() {
    echo "cluster-smoke: FAIL: $*" >&2
    for log in coord.log solo.log w0.log w1.log w2.log w3.log; do
        if [ -s "$WORK/$log" ]; then
            echo "cluster-smoke: --- $log ---" >&2
            cat "$WORK/$log" >&2
        fi
    done
    exit 1
}

# jget FILE KEY — extract the first scalar for a JSON key without jq.
jget() {
    sed -n "s/^.*\"$2\": *\([0-9truefals]*\).*\$/\1/p" "$1" | head -n 1
}

say "building"
$GO build -o "$WORK/partserved" ./cmd/partserved
$GO build -o "$WORK/partworker" ./cmd/partworker
$GO build -o "$WORK/datagen" ./cmd/datagen

say "generating database"
"$WORK/datagen" -d 60 -t 10 -n 5 -l 20 -i 3 -seed 11 -o "$WORK/db.txt"

say "partworker without -join: probes, metrics, clean SIGTERM"
"$WORK/partworker" -listen 127.0.0.1:0 \
    -metrics-addr 127.0.0.1:0 -metrics-portfile "$WORK/wmet0" \
    2>"$WORK/w0.log" &
W0_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/wmet0" ] && break
    kill -0 "$W0_PID" 2>/dev/null || die "no-join worker died during startup"
    sleep 0.1
done
[ -s "$WORK/wmet0" ] || die "no-join worker never wrote its metrics port file"
W0MET="http://$(cat "$WORK/wmet0")"
curl -sSf "$W0MET/healthz" | grep -q '"ok"' || die "no-join worker healthz failed"
curl -sSf "$W0MET/metrics" | grep -q '^partworker_uptime_seconds' \
    || die "no-join worker serves no partworker_* registry"
kill -TERM "$W0_PID"
rc=0
wait "$W0_PID" || rc=$?
W0_PID=""
[ "$rc" = "0" ] || die "no-join worker exited $rc on SIGTERM"
grep -q 'partworker: shutting down' "$WORK/w0.log" || die "no-join worker did not report a clean shutdown"

say "booting coordinator (waits for 3 workers)"
"$WORK/partserved" -addr 127.0.0.1:0 -portfile "$WORK/addr" \
    -minsup 0.1 -k 4 \
    -cluster-addr 127.0.0.1:0 -cluster-portfile "$WORK/caddr" \
    -cluster-wait 3 -replicas 2 -cluster-heartbeat 200ms -cluster-misses 2 \
    "$WORK/db.txt" 2>"$WORK/coord.log" &
SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/caddr" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || die "coordinator died during startup"
    sleep 0.1
done
[ -s "$WORK/caddr" ] || die "coordinator never wrote its RPC address"
CADDR="$(cat "$WORK/caddr")"

say "joining 3 workers to $CADDR (each with a metrics listener)"
i=1
for id in smoke-w1 smoke-w2 smoke-w3; do
    "$WORK/partworker" -listen 127.0.0.1:0 -join "$CADDR" -id "$id" \
        -heartbeat 100ms \
        -metrics-addr 127.0.0.1:0 -metrics-portfile "$WORK/wmet$i" \
        2>"$WORK/w$i.log" &
    eval "W${i}_PID=$!"
    i=$((i + 1))
done

# The HTTP port file appears only after the fleet joined and the initial
# (cluster-sharded) mine finished.
for _ in $(seq 1 300); do
    [ -s "$WORK/addr" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || die "coordinator died before the initial mine"
    sleep 0.1
done
[ -s "$WORK/addr" ] || die "coordinator never published its HTTP address"
URL="http://$(cat "$WORK/addr")"
say "cluster up at $URL"

say "booting single-node oracle"
"$WORK/partserved" -addr 127.0.0.1:0 -portfile "$WORK/soloaddr" \
    -minsup 0.1 -k 4 "$WORK/db.txt" 2>"$WORK/solo.log" &
SOLO_PID=$!
for _ in $(seq 1 300); do
    [ -s "$WORK/soloaddr" ] && break
    kill -0 "$SOLO_PID" 2>/dev/null || die "single-node oracle died during startup"
    sleep 0.1
done
SOLO_URL="http://$(cat "$WORK/soloaddr")"

say "GET /v1/cluster"
curl -sSf "$URL/v1/cluster" >"$WORK/cluster.json"
[ "$(jget "$WORK/cluster.json" alive)" = "3" ] || die "expected 3 live workers: $(cat "$WORK/cluster.json")"
grep -q '"unit-0"' "$WORK/cluster.json" || die "no unit assignment: $(cat "$WORK/cluster.json")"
[ "$(jget "$WORK/cluster.json" local_mines)" = "0" ] || die "units were mined locally despite a healthy fleet: $(cat "$WORK/cluster.json")"

say "worker /metrics, /healthz, and pprof listener"
[ -s "$WORK/wmet1" ] || die "worker 1 never wrote its metrics port file"
WMET="http://$(cat "$WORK/wmet1")"
curl -sSf "$WMET/metrics" >"$WORK/wmetrics.txt" || die "worker metrics scrape failed"
for family in \
    partworker_units_mined_total \
    partworker_unit_mine_seconds \
    partworker_uptime_seconds \
    partworker_snapshot_epoch; do
    grep -q "$family" "$WORK/wmetrics.txt" || die "worker metrics missing $family"
done
curl -sSf "$WMET/healthz" | grep -q '"ok"' || die "worker healthz failed"
curl -sSf "$WMET/debug/pprof/" | grep -qi profile || die "worker pprof index failed"

say "coordinator /metrics federates partserve_worker_* series"
fed=""
for _ in $(seq 1 50); do
    curl -sSf "$URL/metrics" >"$WORK/fed.txt"
    if grep -q '^partserve_worker_units_mined_total{worker="smoke-w' "$WORK/fed.txt"; then
        fed=yes
        break
    fi
    sleep 0.2
done
[ -n "$fed" ] || die "coordinator never federated worker series: $(grep partserve_worker "$WORK/fed.txt" || true)"
grep -q '^# TYPE partserve_worker_unit_mine_seconds histogram' "$WORK/fed.txt" \
    || die "federated families lack HELP/TYPE lines"
grep -q '^partserve_worker_unit_mine_seconds_bucket{worker="smoke-w' "$WORK/fed.txt" \
    || die "federated histogram series missing"

say "cluster mine agrees with single node"
curl -sSf "$URL/v1/patterns?k=0" >"$WORK/pat_cluster.json"
curl -sSf "$SOLO_URL/v1/patterns?k=0" >"$WORK/pat_solo.json"
cmp -s "$WORK/pat_cluster.json" "$WORK/pat_solo.json" \
    || die "cluster pattern set differs from single-node mine"
grep -q '"key"' "$WORK/pat_cluster.json" || die "cluster mine returned no patterns"

say "replica pattern read"
curl -sSf "$URL/v1/patterns?k=5&replica=1" >"$WORK/replica.json"
[ "$(jget "$WORK/replica.json" replica)" = "true" ] || die "replica read answered locally: $(cat "$WORK/replica.json")"

say "replica containment read"
printf 't # 0\nv 0 0\nv 1 1\ne 0 1 0\n' >"$WORK/query.txt"
curl -sSf -X POST --data-binary @"$WORK/query.txt" "$URL/v1/contains" >"$WORK/contains_local.json"
curl -sSf -X POST --data-binary @"$WORK/query.txt" "$URL/v1/contains?replica=1" >"$WORK/contains_replica.json"
[ "$(jget "$WORK/contains_replica.json" replica)" = "true" ] || die "replica contains answered locally"
[ "$(jget "$WORK/contains_replica.json" support)" = "$(jget "$WORK/contains_local.json" support)" ] \
    || die "replica contains support differs: $(cat "$WORK/contains_replica.json") vs $(cat "$WORK/contains_local.json")"

say "SIGKILL the owner of unit-0"
victim="$(sed -n 's/.*"unit-0": *"\([^"]*\)".*/\1/p' "$WORK/cluster.json" | head -n 1)"
[ -n "$victim" ] || die "could not resolve unit-0's owner"
case "$victim" in
smoke-w1) kill -9 "$W1_PID"; W1_PID="" ;;
smoke-w2) kill -9 "$W2_PID"; W2_PID="" ;;
smoke-w3) kill -9 "$W3_PID"; W3_PID="" ;;
*) die "unit-0 owned by unknown worker $victim" ;;
esac
say "killed $victim"

say "fold add_graph through the degraded fleet (full re-mine, traced)"
update='{"ops":[{"op":"add_graph","graph":"t # 0\nv 0 0\nv 1 1\ne 0 1 0\n"}]}'
curl -sSf -X POST -d "$update" "$URL/v1/update?trace=1" >"$WORK/update.json"
[ "$(jget "$WORK/update.json" epoch)" = "2" ] || die "cluster update did not publish epoch 2: $(cat "$WORK/update.json")"
[ "$(jget "$WORK/update.json" full_remine)" = "true" ] || die "add_graph did not force a full re-mine: $(cat "$WORK/update.json")"
grep -q '"trace_id"' "$WORK/update.json" || die "traced update lacks trace_id: $(cat "$WORK/update.json")"
grep -q '"name": *"worker.smoke-w' "$WORK/update.json" \
    || die "traced cluster fold lacks grafted worker spans"
grep -q '"name": *"mine.unit-' "$WORK/update.json" \
    || die "traced cluster fold lacks worker-side per-unit spans"
curl -sSf -X POST -d "$update" "$SOLO_URL/v1/update" >"$WORK/update_solo.json"

say "post-kill pattern set still agrees with single node"
curl -sSf "$URL/v1/patterns?k=0" >"$WORK/pat_cluster2.json"
curl -sSf "$SOLO_URL/v1/patterns?k=0" >"$WORK/pat_solo2.json"
cmp -s "$WORK/pat_cluster2.json" "$WORK/pat_solo2.json" \
    || die "pattern set diverged after killing $victim"

say "coordinator reports the failover"
reass=0
for _ in $(seq 1 50); do
    curl -sSf "$URL/v1/cluster" >"$WORK/cluster2.json"
    reass="$(jget "$WORK/cluster2.json" reassignments)"
    alive="$(jget "$WORK/cluster2.json" alive)"
    [ "${reass:-0}" -ge 1 ] && [ "$alive" = "2" ] && break
    sleep 0.2
done
[ "${reass:-0}" -ge 1 ] || die "no reassignment recorded after the kill: $(cat "$WORK/cluster2.json")"
[ "$alive" = "2" ] || die "dead worker never detected: $(cat "$WORK/cluster2.json")"
[ "$(jget "$WORK/cluster2.json" deaths)" = "1" ] || die "death not counted: $(cat "$WORK/cluster2.json")"

say "cluster metrics exposed"
curl -sSf "$URL/metrics" >"$WORK/metrics.txt"
grep -q '^partserve_cluster_alive_workers 2' "$WORK/metrics.txt" \
    || die "alive-workers gauge wrong: $(grep partserve_cluster_alive "$WORK/metrics.txt" || true)"
grep -q '^partserve_cluster_rpc_seconds_count' "$WORK/metrics.txt" \
    || die "no cluster RPC histogram in /metrics"
grep -q '^partserve_cluster_heartbeats_total' "$WORK/metrics.txt" \
    || die "no cluster heartbeat counter in /metrics"

say "stats carries the cluster block"
curl -sSf "$URL/v1/stats" >"$WORK/stats.json"
grep -q '"cluster"' "$WORK/stats.json" || die "stats lack the cluster block"

say "OK"
