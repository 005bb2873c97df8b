#!/bin/sh
# End-to-end smoke test for replication: builds ringserve + ringrepl,
# starts a leader with the replication endpoint, sync-inserts on it,
# bootstraps a follower, polls until lag is zero, asserts
# read-your-writes on the follower via X-Ring-Min-Seq (using the seq the
# leader's mutation ack returned), asserts the mutation redirect (421
# with the leader address), then SIGKILLs the leader, promotes the
# follower with `ringrepl promote`, inserts on the promoted node, and
# finally SIGTERMs it asserting a clean checkpointed drain.
#
# Run via `make repl-smoke`. Needs curl and awk; picks off-main ports
# (override with REPL_SMOKE_PORT / base+1 / base+2).
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PORT=${REPL_SMOKE_PORT:-18571}
REPL_PORT=$((PORT + 1))
FPORT=$((PORT + 2))
LEADER="http://127.0.0.1:$PORT"
FOLLOWER="http://127.0.0.1:$FPORT"
LEADER_PID=
FOLLOWER_PID=

cleanup() {
    for pid in $LEADER_PID $FOLLOWER_PID; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

json_field() {
    # json_field KEY: prints the numeric/boolean/string value of the
    # first "KEY": occurrence on stdin (flat-enough JSON for this smoke).
    awk -v key="\"$1\":" '{
        n = index($0, key)
        if (n == 0) next
        rest = substr($0, n + length(key))
        gsub(/^[ \t]*/, "", rest)
        if (substr(rest, 1, 1) == "\"") {
            rest = substr(rest, 2)
            print substr(rest, 1, index(rest, "\"") - 1)
        } else {
            gsub(/[,}\]].*/, "", rest)
            print rest
        }
        exit
    }'
}

wait_ready() {
    base=$1; pid=$2; name=$3; log=$4
    ok=0
    for _ in $(seq 1 150); do
        if curl -fsS -o /dev/null "$base/readyz" 2>/dev/null; then
            ok=1
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "repl-smoke: $name exited during startup"
            cat "$log"
            exit 1
        fi
        sleep 0.1
    done
    if [ "$ok" != 1 ]; then
        echo "repl-smoke: $name /readyz never became ready"
        cat "$log"
        exit 1
    fi
}

echo "== repl-smoke: build ringserve + ringrepl"
go build -o "$TMP/ringserve" ./cmd/ringserve
go build -o "$TMP/ringrepl" ./cmd/ringrepl

echo "== repl-smoke: start leader (repl endpoint on :$REPL_PORT)"
"$TMP/ringserve" -data-dir "$TMP/leader" -addr "127.0.0.1:$PORT" \
    -repl-listen "127.0.0.1:$REPL_PORT" \
    2> "$TMP/leader.log" &
LEADER_PID=$!
wait_ready "$LEADER" "$LEADER_PID" leader "$TMP/leader.log"

echo "== repl-smoke: sync insert on leader"
ack=$(curl -fsS -X POST -d '{"triples":[{"s":"alice","p":"knows","o":"bob"},{"s":"bob","p":"knows","o":"carol"}],"sync":true}' \
    "$LEADER/insert")
SEQ=$(printf '%s' "$ack" | json_field seq)
if [ -z "$SEQ" ] || [ "$SEQ" = 0 ]; then
    echo "repl-smoke: leader insert ack has no committed seq: $ack"
    exit 1
fi

echo "== repl-smoke: start follower of 127.0.0.1:$REPL_PORT"
"$TMP/ringserve" -data-dir "$TMP/follower" -addr "127.0.0.1:$FPORT" \
    -follow "127.0.0.1:$REPL_PORT" \
    2> "$TMP/follower.log" &
FOLLOWER_PID=$!
wait_ready "$FOLLOWER" "$FOLLOWER_PID" follower "$TMP/follower.log"

echo "== repl-smoke: poll until replication lag is zero"
caught_up=0
for _ in $(seq 1 100); do
    stats=$(curl -fsS "$FOLLOWER/stats")
    applied=$(printf '%s' "$stats" | json_field applied_seq)
    lag=$(printf '%s' "$stats" | json_field lag_batches)
    if [ "${applied:-0}" -ge "$SEQ" ] && [ "${lag:-1}" = 0 ]; then
        caught_up=1
        break
    fi
    sleep 0.1
done
if [ "$caught_up" != 1 ]; then
    echo "repl-smoke: follower never reached lag=0 (applied=${applied:-?} lag=${lag:-?})"
    cat "$TMP/follower.log"
    exit 1
fi

echo "== repl-smoke: read-your-writes on follower (X-Ring-Min-Seq: $SEQ)"
body=$(curl -fsS -H "X-Ring-Min-Seq: $SEQ" -G --data-urlencode 'q=alice knows ?who' "$FOLLOWER/query")
case "$body" in
*'"vars":["who"],"rows":[["bob"]]'*) ;;
*)
    echo "repl-smoke: follower missed the leader's write: $body"
    exit 1
    ;;
esac

echo "== repl-smoke: mutation on follower redirects to leader (421)"
code=$(curl -s -o "$TMP/redirect.json" -w '%{http_code}' -X POST \
    -d '{"triples":[{"s":"x","p":"y","o":"z"}]}' "$FOLLOWER/insert")
if [ "$code" != 421 ]; then
    echo "repl-smoke: follower accepted a mutation (status $code): $(cat "$TMP/redirect.json")"
    exit 1
fi
case "$(cat "$TMP/redirect.json")" in
*"127.0.0.1:$PORT"*) ;;
*)
    echo "repl-smoke: redirect does not name the leader: $(cat "$TMP/redirect.json")"
    exit 1
    ;;
esac

echo "== repl-smoke: ringrepl status against the follower"
"$TMP/ringrepl" status -addr "127.0.0.1:$FPORT" | grep -q 'role: *follower' || {
    echo "repl-smoke: ringrepl status did not report follower role"
    exit 1
}

echo "== repl-smoke: SIGKILL the leader"
kill -9 "$LEADER_PID"
wait "$LEADER_PID" 2>/dev/null || true
LEADER_PID=

echo "== repl-smoke: promote the follower"
"$TMP/ringrepl" promote -addr "127.0.0.1:$FPORT" | grep -q 'promoted: role=leader' || {
    echo "repl-smoke: promote failed"
    cat "$TMP/follower.log"
    exit 1
}

echo "== repl-smoke: insert on the promoted node"
ack=$(curl -fsS -X POST -d '{"triples":[{"s":"carol","p":"knows","o":"dave"}],"sync":true}' \
    "$FOLLOWER/insert")
NEWSEQ=$(printf '%s' "$ack" | json_field seq)
if [ -z "$NEWSEQ" ] || [ "$NEWSEQ" -le "$SEQ" ]; then
    echo "repl-smoke: promoted node's insert seq did not advance past $SEQ: $ack"
    exit 1
fi
body=$(curl -fsS -G --data-urlencode 'q=carol knows ?who' "$FOLLOWER/query")
case "$body" in
*'"vars":["who"],"rows":[["dave"]]'*) ;;
*)
    echo "repl-smoke: promoted node lost its own write: $body"
    exit 1
    ;;
esac

echo "== repl-smoke: graceful drain of the promoted node"
kill -TERM "$FOLLOWER_PID"
F_EXIT=0
wait "$FOLLOWER_PID" || F_EXIT=$?
FOLLOWER_PID=
if [ "$F_EXIT" != 0 ]; then
    echo "repl-smoke: promoted node exit code $F_EXIT after SIGTERM"
    cat "$TMP/follower.log"
    exit 1
fi
if ! grep -q 'drain complete' "$TMP/follower.log"; then
    echo "repl-smoke: no 'drain complete' in follower log:"
    cat "$TMP/follower.log"
    exit 1
fi
if [ ! -f "$TMP/follower/MANIFEST" ]; then
    echo "repl-smoke: no MANIFEST in follower dir after drain"
    exit 1
fi

echo "repl-smoke: OK (leader insert seq $SEQ replicated, promote + write seq $NEWSEQ, clean drain)"
