#!/bin/sh
# server_smoke.sh — end-to-end smoke of the serving stack, the CI lane
# behind `make server-smoke`: build cmd/server, enumerate the servable
# structures from the server's own registry (server -list), then for a
# keyed structure from each family — the LLX/SCX multiset and the lock-free
# hash map — start the server, drive it with the load generator for one
# second, scrape the -metrics HTTP endpoint (both the text view and the
# Prometheus exposition, which loadgen parses with the in-repo parser and
# renders as a server-vs-client latency table), check the text view carries
# the server, engine and reclaim families, dump the slow-op trace endpoint,
# send SIGTERM, and assert the server drains and exits cleanly (status 0).
set -eu

PORT=$((17000 + $$ % 1000))
MPORT=$((PORT + 1))
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "server-smoke: building"
go build -o "$TMP/server" ./cmd/server
go build -o "$TMP/bench" ./cmd/bench

echo "server-smoke: enumerating structures from the registry"
"$TMP/server" -list >"$TMP/structures"
cat "$TMP/structures"
for want in llx-multiset hashmap; do
    grep -qx "$want" "$TMP/structures" || {
        echo "server-smoke: FAILED: registry does not list $want" >&2
        exit 1
    }
done

for STRUCT in llx-multiset hashmap; do
    echo "server-smoke: starting $STRUCT server on 127.0.0.1:$PORT (metrics :$MPORT, GOMAXPROCS=2)"
    # GOMAXPROCS=2 so the smoke exercises the batched fast path under
    # concurrent connection goroutines, not single-threaded scheduling.
    GOMAXPROCS=2 "$TMP/server" -addr "127.0.0.1:$PORT" -metrics "127.0.0.1:$MPORT" \
        -structure "$STRUCT" -shards 4 >"$TMP/server.log" 2>&1 &
    SERVER_PID=$!

    echo "server-smoke: running loadgen for 1s and scraping metrics"
    "$TMP/bench" -loadgen -addr "127.0.0.1:$PORT" \
        -lgdur 1s -lgdepth 16 -lgconns 2 \
        -lgmetrics "http://127.0.0.1:$MPORT/metrics" | tee "$TMP/loadgen.log"

    # The Prometheus exposition must have parsed cleanly (loadgen runs it
    # through obs.ParseProm) and carried the op latency histograms.
    grep -q "prom scrape OK:" "$TMP/loadgen.log" || {
        echo "server-smoke: FAILED: loadgen did not parse the prom exposition" >&2
        exit 1
    }
    grep -q "server GET" "$TMP/loadgen.log" || {
        echo "server-smoke: FAILED: no server-side GET latency row in loadgen output" >&2
        exit 1
    }

    echo "server-smoke: checking the text /metrics view"
    fetch "http://127.0.0.1:$MPORT/metrics" >"$TMP/metrics.txt"
    for family in kv_server_ops_total kv_engine_ops_total kv_reclaim_epoch; do
        grep -Eq "^$family[{ ]" "$TMP/metrics.txt" || {
            echo "server-smoke: FAILED: text /metrics has no $family sample" >&2
            cat "$TMP/metrics.txt" >&2
            exit 1
        }
    done

    echo "server-smoke: dumping the slow-op trace endpoint"
    fetch "http://127.0.0.1:$MPORT/trace" | head -5

    echo "server-smoke: SIGTERM, expecting clean drain"
    kill -TERM "$SERVER_PID"
    if wait "$SERVER_PID"; then
        SERVER_PID=""
    else
        status=$?
        SERVER_PID=""
        echo "server-smoke: FAILED: $STRUCT server exited with status $status" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    grep -q "drained:" "$TMP/server.log" || {
        echo "server-smoke: FAILED: no drain report in $STRUCT server log" >&2
        cat "$TMP/server.log" >&2
        exit 1
    }
done
echo "server-smoke: OK"
