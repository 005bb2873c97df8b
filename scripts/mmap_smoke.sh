#!/bin/sh
# End-to-end smoke test for the zero-copy mmap load path: builds an
# index, inspects its layout with ringstats -mmap, serves it with
# ringserve -mmap and checks that query answers match a decode-mode
# server exactly (including across a restart), and that the mmap
# observability surface (/metrics load mode + mapped bytes, /stats
# mapped section) is present. Then exercises live mode with -mmap:
# insert, SIGKILL, WAL recovery, graceful drain with a checkpoint, and a
# final restart that view-loads the checkpointed rings.
#
# Run via `make mmap-smoke`. Needs curl and awk; picks an off-main port
# (override with MMAP_SMOKE_PORT).
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PORT=${MMAP_SMOKE_PORT:-18475}
BASE="http://127.0.0.1:$PORT"
SRV_PID=

cleanup() {
    if [ -n "$SRV_PID" ]; then
        kill -9 "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# start_server <args...>: launch ringserve and wait for readiness.
start_server() {
    "$TMP/ringserve" "$@" -addr "127.0.0.1:$PORT" 2>> "$TMP/server.log" &
    SRV_PID=$!
    ready=0
    for _ in $(seq 1 150); do
        if curl -fsS -o /dev/null "$BASE/readyz" 2>/dev/null; then
            ready=1
            break
        fi
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "mmap-smoke: server exited during startup"
            cat "$TMP/server.log"
            SRV_PID=
            exit 1
        fi
        sleep 0.1
    done
    if [ "$ready" != 1 ]; then
        echo "mmap-smoke: /readyz never became ready"
        cat "$TMP/server.log"
        exit 1
    fi
}

stop_server() {
    kill -TERM "$SRV_PID"
    wait "$SRV_PID" || true
    SRV_PID=
}

# static_answer: a deterministic join, canonical because rows are
# fully enumerated sequentially; only the wall-clock field is masked.
static_answer() {
    curl -fsS -G --data-urlencode 'q=?a p0 ?b ; ?b p1 ?c' \
        --data 'limit=100000&no_cache=1' "$BASE/query" |
        sed 's/"elapsed_ms":[0-9.eE+-]*/"elapsed_ms":X/'
}

echo "== mmap-smoke: build ringbuild + ringserve + ringstats"
go build -o "$TMP/ringbuild" ./cmd/ringbuild
go build -o "$TMP/ringserve" ./cmd/ringserve
go build -o "$TMP/ringstats" ./cmd/ringstats

echo "== mmap-smoke: index a random graph"
awk 'BEGIN { srand(11); for (i = 0; i < 5000; i++)
        printf "n%03d p%d n%03d\n", int(rand()*150), int(rand()*4), int(rand()*150) }' \
    > "$TMP/graph.tsv"
"$TMP/ringbuild" -in "$TMP/graph.tsv" -out "$TMP/graph.ring"

echo "== mmap-smoke: ringstats -mmap reports the zero-copy layout"
stats=$("$TMP/ringstats" -index "$TMP/graph.ring" -mmap)
case "$stats" in
*'load mode:           mmap'*) ;;
*)
    echo "mmap-smoke: ringstats did not report mmap load mode: $stats"
    exit 1
    ;;
esac
case "$stats" in
*'zero-copy'*) ;;
*)
    echo "mmap-smoke: index not loadable zero-copy: $stats"
    exit 1
    ;;
esac

echo "== mmap-smoke: decode-mode answer as the reference"
start_server -index "$TMP/graph.ring"
want=$(static_answer)
stop_server
case "$want" in
*'"rows":[['*) ;;
*)
    echo "mmap-smoke: reference query failed: $want"
    exit 1
    ;;
esac

echo "== mmap-smoke: serve with -mmap, answers must match decode exactly"
start_server -index "$TMP/graph.ring" -mmap
got=$(static_answer)
if [ "$got" != "$want" ]; then
    echo "mmap-smoke: mmap answer differs from decode answer"
    echo "decode: $want"
    echo "mmap:   $got"
    exit 1
fi

echo "== mmap-smoke: mmap observability"
metrics=$(curl -fsS "$BASE/metrics")
case "$metrics" in
*'ringserve_index_load_mode{mode="mmap"} 1'*) ;;
*)
    echo "mmap-smoke: /metrics missing mmap load mode"
    exit 1
    ;;
esac
bytes=$(printf '%s\n' "$metrics" | awk '/^ringserve_index_bytes_mapped/ { print $2 }')
if [ -z "$bytes" ] || [ "$bytes" = 0 ]; then
    echo "mmap-smoke: ringserve_index_bytes_mapped is '$bytes', want > 0"
    exit 1
fi
statsjson=$(curl -fsS "$BASE/stats")
case "$statsjson" in
*'"mapped"'*'"mode":"mmap"'*) ;;
*)
    echo "mmap-smoke: /stats missing the mapped section: $statsjson"
    exit 1
    ;;
esac

echo "== mmap-smoke: restart with -mmap, same answer"
stop_server
start_server -index "$TMP/graph.ring" -mmap
got=$(static_answer)
stop_server
if [ "$got" != "$want" ]; then
    echo "mmap-smoke: answer changed across mmap restart"
    exit 1
fi

echo "== mmap-smoke: live mode with -mmap (insert, SIGKILL, recover)"
DATA="$TMP/data"
count_knows() {
    curl -fsS "$BASE/query" -d '{"pattern":[{"s":"?x","p":"knows","o":"?y"}],"limit":100,"no_cache":true}' |
        sed 's/.*"count":\([0-9]*\).*/\1/'
}
start_server -data-dir "$DATA" -mmap -memtable 2
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/insert" \
    -d '{"triples":[{"s":"alice","p":"knows","o":"bob"},{"s":"bob","p":"knows","o":"carol"},{"s":"carol","p":"knows","o":"dave"}]}')
if [ "$code" != 200 ]; then
    echo "mmap-smoke: live insert returned $code"
    exit 1
fi
n=$(count_knows)
if [ "$n" != 3 ]; then
    echo "mmap-smoke: expected 3 triples after insert, got $n"
    exit 1
fi
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
start_server -data-dir "$DATA" -mmap -memtable 2
n=$(count_knows)
if [ "$n" != 3 ]; then
    echo "mmap-smoke: acked triples lost across SIGKILL with -mmap: got $n"
    cat "$TMP/server.log"
    exit 1
fi

echo "== mmap-smoke: drain (checkpoint), restart view-loads the rings"
stop_server
start_server -data-dir "$DATA" -mmap -memtable 2
n=$(count_knows)
if [ "$n" != 3 ]; then
    echo "mmap-smoke: expected 3 triples after drain + restart, got $n"
    exit 1
fi
metrics=$(curl -fsS "$BASE/metrics")
case "$metrics" in
*ringserve_snapshot_install_seconds*) ;;
*)
    echo "mmap-smoke: /metrics missing ringserve_snapshot_install_seconds"
    exit 1
    ;;
esac
statsjson=$(curl -fsS "$BASE/stats")
case "$statsjson" in
*'"mode":"mmap"'*) ;;
*)
    echo "mmap-smoke: live /stats does not report mmap mode: $statsjson"
    exit 1
    ;;
esac
stop_server

echo "mmap-smoke passed"
