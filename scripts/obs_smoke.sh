#!/bin/sh
# obs_smoke.sh — smoke test for the observability surface.
#
# Boots partserved with the pprof listener and a hair-trigger slow
# threshold, folds one update, and asserts the Prometheus exposition at
# /metrics, the slow-op journal at /v1/debug/slow, and the pprof index.
# Then runs partminer -trace and checks the span tree covers the
# partition/units/merge phases. Run via `make obs-smoke`; part of
# `make check`.
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

say() { echo "obs-smoke: $*"; }

die() {
    echo "obs-smoke: FAIL: $*" >&2
    if [ -s "$WORK/server.log" ]; then
        echo "obs-smoke: --- server stderr ---" >&2
        cat "$WORK/server.log" >&2
    fi
    exit 1
}

say "building"
$GO build -o "$WORK/partserved" ./cmd/partserved
$GO build -o "$WORK/partminer" ./cmd/partminer
$GO build -o "$WORK/datagen" ./cmd/datagen

say "generating database"
"$WORK/datagen" -d 60 -t 10 -n 5 -l 20 -i 3 -seed 11 -o "$WORK/db.txt"

say "booting partserved with -debug-addr and a 1µs slow threshold"
"$WORK/partserved" -addr 127.0.0.1:0 -portfile "$WORK/addr" \
    -minsup 0.1 -debug-addr 127.0.0.1:0 -slow-threshold 1us \
    "$WORK/db.txt" 2>"$WORK/server.log" &
SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/addr" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || die "server died during startup"
    sleep 0.1
done
[ -s "$WORK/addr" ] || die "server never wrote the port file"
URL="http://$(cat "$WORK/addr")"
say "server up at $URL"

say "folding one update"
curl -sSf -X POST -d '{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":3}]}' \
    "$URL/v1/update" >/dev/null || die "update failed"
curl -sSf "$URL/v1/patterns?k=3" >/dev/null || die "patterns query failed"

say "GET /metrics"
curl -sSf "$URL/metrics" >"$WORK/metrics.txt" || die "metrics scrape failed"
for family in \
    partserve_http_request_seconds_bucket \
    partserve_update_fold_seconds_count \
    partserve_unit_mine_seconds_count \
    partserve_queries_total \
    partserve_updates_total \
    partserve_epoch \
    partserve_uptime_seconds; do
    grep -q "^$family" "$WORK/metrics.txt" || die "metrics missing $family"
done
grep -q '^# TYPE partserve_http_request_seconds histogram' "$WORK/metrics.txt" \
    || die "exposition lacks the histogram TYPE line"
[ "$(grep -c 'le="+Inf"' "$WORK/metrics.txt")" -ge 2 ] \
    || die "histograms lack +Inf buckets"

say "X-Partserve-Trace response header"
curl -sSf -D "$WORK/headers.txt" "$URL/v1/stats" >/dev/null || die "stats request failed"
TRACE_ID="$(sed -n 's/^X-Partserve-Trace: *\([0-9a-f]*\).*/\1/pi' "$WORK/headers.txt" | head -n 1)"
[ "${#TRACE_ID}" = "16" ] || die "X-Partserve-Trace header missing or malformed: $(cat "$WORK/headers.txt")"

say "POST /v1/contains?trace=1 (inline span tree)"
printf 't # 0\nv 0 0\nv 1 1\ne 0 1 0\n' >"$WORK/query.txt"
curl -sSf -X POST --data-binary @"$WORK/query.txt" \
    "$URL/v1/contains?trace=1" >"$WORK/traced.json" || die "traced contains failed"
grep -q '"trace_id"' "$WORK/traced.json" || die "traced contains lacks trace_id: $(cat "$WORK/traced.json")"
grep -q '"name": *"http.contains"' "$WORK/traced.json" || die "traced contains lacks the span tree: $(cat "$WORK/traced.json")"
curl -sSf -X POST --data-binary @"$WORK/query.txt" "$URL/v1/contains" >"$WORK/untraced.json"
grep -q '"trace"' "$WORK/untraced.json" && die "untraced contains shipped a span tree"

say "/metrics and /v1/stats render one registry"
# Both are views of the same accumulator: after the reads above the plan
# hits must agree (a counter that never fired has no series yet: 0).
curl -sSf "$URL/v1/stats" >"$WORK/stats.json" || die "stats request failed"
curl -sSf "$URL/metrics" >"$WORK/metrics2.txt" || die "second metrics scrape failed"
STATS_HITS="$(sed -n 's/^.*"plan_hits": *\([0-9]*\).*$/\1/p' "$WORK/stats.json" | head -n 1)"
STATS_FALLS="$(sed -n 's/^.*"vf2_fallbacks": *\([0-9]*\).*$/\1/p' "$WORK/stats.json" | head -n 1)"
METRIC_HITS="$(sed -n 's/^partserve_plan_hit_total \([0-9]*\)$/\1/p' "$WORK/metrics2.txt")"
[ -n "$STATS_HITS" ] || die "stats has no plan_hits: $(cat "$WORK/stats.json")"
[ "${METRIC_HITS:-0}" = "$STATS_HITS" ] \
    || die "partserve_plan_hit_total=${METRIC_HITS:-0} but /v1/stats plan_hits=$STATS_HITS"
[ "$((STATS_HITS + STATS_FALLS))" -ge 2 ] \
    || die "the two contains reads registered nowhere: hits=$STATS_HITS fallbacks=$STATS_FALLS"

say "GET /v1/debug/slow"
curl -sSf "$URL/v1/debug/slow" >"$WORK/slow.json" || die "slow journal scrape failed"
grep -q '"threshold_ns"' "$WORK/slow.json" || die "slow journal malformed: $(cat "$WORK/slow.json")"
grep -q '"kind"' "$WORK/slow.json" || die "1µs threshold journaled nothing: $(cat "$WORK/slow.json")"
grep -q '"trace_id"' "$WORK/slow.json" || die "slow entries lack trace ids: $(cat "$WORK/slow.json")"

say "GET /v1/debug/slow?n=1 (bounded)"
curl -sSf "$URL/v1/debug/slow?n=1" >"$WORK/slow1.json" || die "bounded slow scrape failed"
[ "$(grep -c '"kind"' "$WORK/slow1.json")" = "1" ] || die "?n=1 returned more than one entry: $(cat "$WORK/slow1.json")"

say "GET pprof index"
DEBUG_ADDR="$(sed -n 's/.*msg="pprof listening".* addr=\([0-9.:]*\).*/\1/p' "$WORK/server.log" | head -n 1)"
[ -n "$DEBUG_ADDR" ] || die "server never logged the pprof address"
curl -sSf "http://$DEBUG_ADDR/debug/pprof/" >"$WORK/pprof.html" || die "pprof index scrape failed"
grep -qi 'profile' "$WORK/pprof.html" || die "pprof index looks wrong"

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

say "partminer -trace"
"$WORK/partminer" -minsup 0.1 -k 2 -trace "$WORK/trace.json" "$WORK/db.txt" \
    >/dev/null 2>"$WORK/miner.log" || { cat "$WORK/miner.log" >&2; die "partminer -trace run failed"; }
for span in partition units unit.0 unit.1 merge; do
    grep -q "\"name\": *\"$span\"" "$WORK/trace.json" || die "trace lacks the $span span"
done

say "OK"
