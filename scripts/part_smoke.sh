#!/bin/sh
# part_smoke.sh — end-to-end smoke test for the partition-strategy layer.
#
# Runs every registered strategy through the partminer CLI on a
# hub-heavy database, asserts the quality metrics (edge-cut ratio,
# replication factor, unit balance) appear in -statsjson, checks all
# strategies agree on the pattern count (the differential contract seen
# from the CLI), verifies a bad -criteria error lists the registered
# names, then boots partserved under a non-default strategy and asserts
# the quality block in /v1/stats and the partition gauges in /metrics.
# Run via `make part-smoke`; part of `make check`.
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "part-smoke: $*"; }

die() {
    echo "part-smoke: FAIL: $*" >&2
    if [ -s "$WORK/server.log" ]; then
        echo "part-smoke: --- server stderr ---" >&2
        cat "$WORK/server.log" >&2
    fi
    exit 1
}

say "building"
$GO build -o "$WORK/partminer" ./cmd/partminer
$GO build -o "$WORK/partserved" ./cmd/partserved
$GO build -o "$WORK/datagen" ./cmd/datagen

say "generating hub-heavy database"
"$WORK/datagen" -d 60 -t 12 -n 5 -l 20 -i 3 -seed 11 -hubs 3 -hubexp 2 \
    -o "$WORK/db.txt"

say "unknown strategy error lists the registered names"
if "$WORK/partminer" -criteria no-such-strategy "$WORK/db.txt" \
    2>"$WORK/err.txt"; then
    die "bogus -criteria was accepted"
fi
grep -q 'unknown strategy "no-such-strategy"' "$WORK/err.txt" \
    || die "error does not name the bad strategy: $(cat "$WORK/err.txt")"
grep -q 'registered:.*partition3' "$WORK/err.txt" \
    || die "error does not list registered strategies: $(cat "$WORK/err.txt")"

# The registered list in that error is the source of truth for which
# strategies to exercise — a newly registered strategy is smoked
# automatically.
STRATEGIES="$(sed -n 's/.*(registered: \(.*\)).*/\1/p' "$WORK/err.txt" | tr -d ',')"
[ -n "$STRATEGIES" ] || die "could not parse the strategy list"
say "strategies: $STRATEGIES"

COUNT=""
for s in $STRATEGIES; do
    say "partminer -criteria $s"
    "$WORK/partminer" -minsup 0.2 -k 3 -maxedges 4 -criteria "$s" \
        -statsjson "$WORK/stats_$s.json" "$WORK/db.txt" >"$WORK/out_$s.txt" \
        || die "$s: partminer failed"
    for field in '"partition"' '"edge_cut_ratio"' '"replication_factor"' '"unit_balance"'; do
        grep -q "$field" "$WORK/stats_$s.json" \
            || die "$s: statsjson lacks $field: $(cat "$WORK/stats_$s.json")"
    done
    grep -q "\"strategy\": *\"$s\"" "$WORK/stats_$s.json" \
        || die "$s: statsjson does not name the strategy"
    # Every strategy must report the same pattern count — the CLI face of
    # the 50-seed differential identity.
    n="$(sed -n 's/^\([0-9][0-9]*\) frequent subgraphs.*/\1/p' "$WORK/out_$s.txt")"
    [ -n "$n" ] || die "$s: no pattern count in output: $(cat "$WORK/out_$s.txt")"
    if [ -z "$COUNT" ]; then
        COUNT="$n"
    elif [ "$n" != "$COUNT" ]; then
        die "$s found $n patterns; other strategies found $COUNT"
    fi
done
say "all strategies agree on $COUNT patterns"

say "booting partserved -criteria vertexcut"
rm -f "$WORK/addr"
"$WORK/partserved" -addr 127.0.0.1:0 -portfile "$WORK/addr" \
    -minsup 0.2 -k 3 -maxedges 4 -criteria vertexcut "$WORK/db.txt" \
    2>"$WORK/server.log" &
SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/addr" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || die "server died during startup"
    sleep 0.1
done
[ -s "$WORK/addr" ] || die "server never wrote the port file"
URL="http://$(cat "$WORK/addr")"

say "GET /v1/stats quality block"
curl -sSf "$URL/v1/stats" >"$WORK/stats.json"
for field in '"partition_quality"' '"edge_cut_ratio"' '"replication_factor"' '"unit_balance"'; do
    grep -q "$field" "$WORK/stats.json" \
        || die "stats lack $field: $(cat "$WORK/stats.json")"
done
grep -q '"strategy": *"vertexcut"' "$WORK/stats.json" \
    || die "stats do not name the serving strategy: $(cat "$WORK/stats.json")"

say "update folds keep the quality block fresh"
curl -sSf -X POST -d '{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":3}]}' \
    "$URL/v1/update" >"$WORK/update.json"
curl -sSf "$URL/v1/stats" >"$WORK/stats2.json"
grep -q '"strategy": *"vertexcut"' "$WORK/stats2.json" \
    || die "post-update stats lost the strategy: $(cat "$WORK/stats2.json")"

say "GET /metrics partition gauges"
curl -sSf "$URL/metrics" >"$WORK/metrics.txt"
for gauge in partserve_partition_edge_cut_ratio partserve_partition_replication_factor \
    partserve_partition_unit_balance partserve_partition_units; do
    grep -q "^$gauge" "$WORK/metrics.txt" \
        || die "metrics lack $gauge: $(grep partserve_partition "$WORK/metrics.txt" || true)"
done

say "OK"
