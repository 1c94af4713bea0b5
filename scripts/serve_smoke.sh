#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for partserved.
#
# Boots the server on an ephemeral port against a small generated
# database, exercises every HTTP endpoint with curl, verifies the
# responses, round-trips an update, restarts from the persisted snapshot
# (-restore), and checks the warm start answers identically. Run via
# `make serve-smoke`; part of `make check`.
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

say() { echo "serve-smoke: $*"; }

# die dumps the server's stderr before failing so a broken run is
# diagnosable from CI output alone.
die() {
    echo "serve-smoke: FAIL: $*" >&2
    if [ -s "$WORK/server.log" ]; then
        echo "serve-smoke: --- server stderr ---" >&2
        cat "$WORK/server.log" >&2
    fi
    exit 1
}

# jget FILE KEY — extract a top-level scalar from a JSON file without jq.
jget() {
    sed -n "s/^.*\"$2\": *\([0-9truefals]*\).*\$/\1/p" "$1" | head -n 1
}

say "building"
$GO build -o "$WORK/partserved" ./cmd/partserved
$GO build -o "$WORK/datagen" ./cmd/datagen

say "generating database"
"$WORK/datagen" -d 60 -t 10 -n 5 -l 20 -i 3 -seed 11 -o "$WORK/db.txt"

boot() { # boot EXTRA_ARGS... — start partserved, wait for the port file
    rm -f "$WORK/addr"
    "$WORK/partserved" -addr 127.0.0.1:0 -portfile "$WORK/addr" \
        -minsup 0.1 -snapshot "$WORK/snap.txt" "$@" 2>"$WORK/server.log" &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$WORK/addr" ] && break
        kill -0 "$SRV_PID" 2>/dev/null || die "server died during startup"
        sleep 0.1
    done
    [ -s "$WORK/addr" ] || die "server never wrote the port file"
    URL="http://$(cat "$WORK/addr")"
}

shutdown() {
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
}

boot "$WORK/db.txt"
say "server up at $URL"

say "GET /healthz"
curl -sSf "$URL/healthz" >"$WORK/health.json"
[ "$(jget "$WORK/health.json" ok)" = "true" ] || die "healthz not ok: $(cat "$WORK/health.json")"

say "GET /v1/patterns"
curl -sSf "$URL/v1/patterns?k=5" >"$WORK/patterns.json"
grep -q '"key"' "$WORK/patterns.json" || die "no patterns returned: $(cat "$WORK/patterns.json")"
[ "$(jget "$WORK/patterns.json" epoch)" = "1" ] || die "unexpected epoch: $(cat "$WORK/patterns.json")"

say "GET /v1/patterns (size filters)"
# max_edges=1 keeps only single-edge patterns; min_edges=2 excludes them.
curl -sSf "$URL/v1/patterns?k=0&max_edges=1" >"$WORK/edges1.json"
grep -q '"key"' "$WORK/edges1.json" || die "max_edges=1 returned no patterns: $(cat "$WORK/edges1.json")"
sizes="$(sed -n 's/.*"size": *\([0-9]*\).*/\1/p' "$WORK/edges1.json" | sort -u)"
[ "$sizes" = "1" ] || die "max_edges=1 returned sizes: $sizes"
curl -sSf "$URL/v1/patterns?k=0&min_edges=2" >"$WORK/edges2.json"
if grep -q '"key"' "$WORK/edges2.json"; then
    small="$(sed -n 's/.*"size": *\([0-9]*\).*/\1/p' "$WORK/edges2.json" | sort -n | head -n 1)"
    [ "$small" -ge 2 ] || die "min_edges=2 returned a size-$small pattern"
fi
# minsize is the back-compat alias for min_edges: identical answers.
curl -sSf "$URL/v1/patterns?k=0&minsize=2" >"$WORK/edges2alias.json"
cmp -s "$WORK/edges2.json" "$WORK/edges2alias.json" || die "minsize alias disagrees with min_edges"

say "POST /v1/contains"
printf 't # 0\nv 0 0\nv 1 1\ne 0 1 0\n' >"$WORK/query.txt"
curl -sSf -X POST --data-binary @"$WORK/query.txt" "$URL/v1/contains" >"$WORK/contains.json"
grep -q '"support"' "$WORK/contains.json" || die "contains gave no support: $(cat "$WORK/contains.json")"

say "POST /v1/contains (batched)"
# Two copies of the same query plus a miss probe with an absent label:
# the raw multi-graph body must come back as a batch document.
printf 't # 0\nv 0 0\nv 1 1\ne 0 1 0\nt # 1\nv 0 0\nv 1 1\ne 0 1 0\nt # 2\nv 0 19\nv 1 19\ne 0 1 2\n' >"$WORK/batch.txt"
curl -sSf -X POST --data-binary @"$WORK/batch.txt" "$URL/v1/contains" >"$WORK/batch.json"
[ "$(jget "$WORK/batch.json" count)" = "3" ] || die "batched contains count: $(cat "$WORK/batch.json")"
grep -q '"results"' "$WORK/batch.json" || die "batched contains has no results array: $(cat "$WORK/batch.json")"
grep -q '"plan_hit"' "$WORK/batch.json" || die "batched contains stats lack plan_hit: $(cat "$WORK/batch.json")"
# Identical queries in one batch must agree with the single-query answer.
single_sup="$(jget "$WORK/contains.json" support)"
batch_sups="$(sed -n 's/.*"support": *\([0-9]*\).*/\1/p' "$WORK/batch.json")"
echo "$batch_sups" | head -n 1 | grep -qx "$single_sup" || die "batch[0] support differs from single: $batch_sups vs $single_sup"

say "POST /v1/update"
curl -sSf -X POST -d '{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":3}]}' \
    "$URL/v1/update" >"$WORK/update.json"
[ "$(jget "$WORK/update.json" epoch)" = "2" ] || die "update did not reach epoch 2: $(cat "$WORK/update.json")"

say "POST /v1/update (invalid op must be rejected)"
code="$(curl -s -o "$WORK/badupdate.json" -w '%{http_code}' -X POST \
    -d '{"ops":[{"op":"add_edge","tid":99999}]}' "$URL/v1/update")"
[ "$code" = "400" ] || die "bad update returned $code: $(cat "$WORK/badupdate.json")"

say "GET /v1/stats"
curl -sSf "$URL/v1/stats" >"$WORK/stats.json"
[ "$(jget "$WORK/stats.json" epoch)" = "2" ] || die "stats epoch: $(cat "$WORK/stats.json")"
[ "$(jget "$WORK/stats.json" batches)" = "1" ] || die "stats batches: $(cat "$WORK/stats.json")"
grep -q 'merge\.' "$WORK/stats.json" || die "stats has no merge counters"
# The in-place relabel above changed one graph of 60, so the fold keeps
# by pointer every old pattern that graph neither held nor can hold.
shared="$(jget "$WORK/stats.json" 'merge\.shared')"
[ -n "$shared" ] && [ "$shared" -gt 0 ] || die "the one-graph fold shared no unchanged pattern: merge.shared=$shared"
grep -q '"stages"' "$WORK/stats.json" || die "stats has no exec stage breakdown"
grep -q '"uptime_seconds"' "$WORK/stats.json" || die "stats has no uptime"
grep -q '"queries_total"' "$WORK/stats.json" || die "stats has no query counter"
grep -q '"updates_total"' "$WORK/stats.json" || die "stats has no update counter"
plans="$(jget "$WORK/stats.json" plans_compiled)"
[ -n "$plans" ] && [ "$plans" != "0" ] || die "stats has no compiled plans: $(cat "$WORK/stats.json")"
grep -q '"plan_hits"' "$WORK/stats.json" || die "stats has no plan_hits"
grep -q '"vf2_fallbacks"' "$WORK/stats.json" || die "stats has no vf2_fallbacks"
grep -q '"query_cache_hit_ratio"' "$WORK/stats.json" || die "stats has no cache hit ratio"
# The contains traffic above must have registered as plan hits or
# fallbacks — the plan layer cannot be silently bypassed.
hits="$(jget "$WORK/stats.json" plan_hits)"
falls="$(jget "$WORK/stats.json" vf2_fallbacks)"
[ "$((hits + falls))" -gt 0 ] || die "no plan activity after contains traffic: hits=$hits fallbacks=$falls"

say "GET /metrics"
curl -sSf "$URL/metrics" >"$WORK/metrics.txt"
grep -q '^partserve_http_request_seconds_bucket' "$WORK/metrics.txt" \
    || die "metrics lack request-latency histogram: $(head -5 "$WORK/metrics.txt")"
grep -q '^partserve_update_fold_seconds_count 1' "$WORK/metrics.txt" \
    || die "metrics lack the update-fold histogram count"

say "GET /v1/debug/slow"
curl -sSf "$URL/v1/debug/slow" >"$WORK/slow.json"
grep -q '"threshold_ns"' "$WORK/slow.json" || die "slow journal malformed: $(cat "$WORK/slow.json")"

say "pattern set after update"
curl -sSf "$URL/v1/patterns?k=1000" >"$WORK/patterns2.json"

say "restarting with -restore"
shutdown
[ -s "$WORK/snap.txt" ] || die "no snapshot was persisted"
boot -restore
curl -sSf "$URL/v1/patterns?k=1000" >"$WORK/patterns3.json"
# The restored server republishes at epoch 1; compare only the patterns.
sed 's/"epoch": *[0-9]*//' "$WORK/patterns2.json" >"$WORK/p2.norm"
sed 's/"epoch": *[0-9]*//' "$WORK/patterns3.json" >"$WORK/p3.norm"
cmp -s "$WORK/p2.norm" "$WORK/p3.norm" || die "warm start changed the pattern set"

say "update after restore"
curl -sSf -X POST -d '{"ops":[{"op":"relabel_vertex","tid":1,"u":0,"label":2}]}' \
    "$URL/v1/update" >"$WORK/update2.json"
[ "$(jget "$WORK/update2.json" epoch)" = "2" ] || die "post-restore update: $(cat "$WORK/update2.json")"

say "graceful shutdown"
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
grep -q "stopped at epoch" "$WORK/server.log" || die "no graceful shutdown message: $(cat "$WORK/server.log")"

say "OK"
