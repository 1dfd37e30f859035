#!/usr/bin/env bash
# End-to-end smokes of the live ops surface. Each mode boots serve-auth on
# a private Unix socket with the metrics listener, drives it with loadgen
# bursts and checks one layer through `peace watch --get`:
#
#   watch  tracing on both ends: /healthz, /flight, /metrics, /series, one
#          `peace watch --once` frame, and client and server spans that
#          stitch on the wire trace ids
#   audit  the tamper-evident ledger: /audit/head and /audit live, then
#          `peace audit verify` on the sealed ledger and on a byte-flipped
#          and a truncated copy, which must fail
#   alert  an --alerts rules file: /alerts quiet at first, the error-budget
#          burn rule firing under malformed traffic, then resolving once
#          clean traffic drains the short window
#
# Usage: opsmoke.sh PATH_TO_PEACE_CLI watch|audit|alert
# Driven by `dune build @watchsmoke`, `@auditsmoke` and `@alertsmoke`.
set -euo pipefail

USAGE="usage: opsmoke.sh PATH_TO_PEACE_CLI watch|audit|alert"
PEACE=${1:?$USAGE}
MODE=${2:?$USAGE}
case "$MODE" in watch|audit|alert) ;; *) echo "$USAGE" >&2; exit 2 ;; esac
case "$PEACE" in /*) ;; *) PEACE="$PWD/$PEACE" ;; esac
DIR=$(mktemp -d "/tmp/peace-${MODE}smoke.XXXXXX")
SERVER_PID=

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

# fail MESSAGE [FILE...]: report, show the files, stop
fail() {
  echo "${MODE}smoke: $1"
  shift
  for f in "$@"; do cat "$f"; done
  exit 1
}

stop_server() {
  kill "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=
}

SOCK="unix:$DIR/auth.sock"
LEDGER="$DIR/ledger.jsonl"

burst() {
  "$PEACE" loadgen --addr "$SOCK" --users 2 --concurrency 2 "$@"
}

get() {
  "$PEACE" watch --port "$PORT" --get "$1"
}

case "$MODE" in
  watch) SERVE=(--duration 20 --trace "$DIR/server-trace.jsonl") ;;
  audit) SERVE=(--duration 20 --audit "$LEDGER") ;;
  alert)
    # tight windows so the multi-window burn both fires and resolves within
    # a smoke-test budget: 20% of connections erroring over 5s AND 30s
    cat > "$DIR/rules.txt" <<'EOF'
# alertsmoke rules
error-burn=burn:service.errors_total/service.connections_total:5s,30s:20%
queue-full=over:service.conn_queue_depth:50:5s
EOF
    # the rules file must lint before it serves
    "$PEACE" alerts lint "$DIR/rules.txt" >/dev/null
    SERVE=(--duration 60 --alerts "$DIR/rules.txt") ;;
esac

"$PEACE" serve-auth --addr "$SOCK" --users 2 "${SERVE[@]}" \
  --metrics-port 0 --metrics-announce "$DIR/port.txt" 2>"$DIR/server.log" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$DIR/port.txt" ] && break
  sleep 0.1
done
[ -s "$DIR/port.txt" ] || fail "metrics port never announced" "$DIR/server.log"
PORT=$(cat "$DIR/port.txt")

smoke_watch() {
  # a short traced burst so the flight recorder, counters, and both span
  # streams have something to show
  burst --duration 1 --trace "$DIR/client-trace.jsonl"

  # healthy authority: watch --get exits 0 and prints the verdict
  HEALTH=$(get /healthz)
  [ "$HEALTH" = "ok" ] || fail "/healthz said '$HEALTH'"

  # the flight recorder saw the authority start up
  get /flight > "$DIR/flight.jsonl"
  grep -q '"msg":"authority listening"' "$DIR/flight.jsonl" \
    || fail "no lifecycle event in /flight" "$DIR/flight.jsonl"

  # the runtime sampler feeds /metrics and /series
  get /metrics | grep -q '^peace_runtime_gc_heap_words ' \
    || fail "no runtime gauges in /metrics"
  get /series | grep -q '"series":"runtime.gc.heap_words"' \
    || fail "no runtime series in /series"

  # one dashboard frame renders (req/s, latency quantiles, gc columns)
  "$PEACE" watch --port "$PORT" --once | grep -q 'req/s' \
    || fail "watch --once rendered no header"

  # distributed tracing: client spans carry trace ids, server spans join
  # them via remote_parent — the wire propagation worked end to end
  grep -q '"name":"loadgen.handshake"' "$DIR/client-trace.jsonl" \
    || fail "no client root spans"

  stop_server

  grep -q '"name":"service.request".*"remote_parent":' "$DIR/server-trace.jsonl" \
    || fail "no stitched server spans"

  # every trace id on a server request span must appear in the client trace
  for t in $(grep -o '"trace":[0-9]*' "$DIR/server-trace.jsonl" | sort -u | head -5); do
    grep -q "$t" "$DIR/client-trace.jsonl" \
      || fail "server $t missing from the client trace"
  done

  echo "watchsmoke: ok (healthz, flight, metrics, series, watch, trace stitching)"
}

smoke_audit() {
  # a short burst so the ledger records real access decisions
  burst --duration 1

  # the live surfaces answer while the ledger is open
  get /audit/head > "$DIR/head.json"
  grep -q '"hash":"' "$DIR/head.json" \
    || fail "/audit/head has no chain head" "$DIR/head.json"
  get '/audit?since=-1' > "$DIR/window.jsonl"
  grep -q '"kind":"genesis"' "$DIR/window.jsonl" \
    || fail "/audit window misses the genesis record"
  grep -q '"kind":"access_accept"' "$DIR/window.jsonl" \
    || fail "no access decisions on the ledger"

  # clean shutdown seals the ledger with a final signed checkpoint
  stop_server

  "$PEACE" audit verify "$LEDGER" \
    || fail "pristine ledger failed to verify"

  # a byte flip must be caught
  sed '2s/"ts":"1/"ts":"2/' "$LEDGER" > "$DIR/tampered.jsonl"
  if "$PEACE" audit verify "$DIR/tampered.jsonl" >/dev/null; then
    fail "tampered ledger verified"
  fi

  # so must a truncated tail (genesis + the first event is a prefix that
  # cannot end at a checkpoint: checkpoints only appear every 32 events)
  head -n 2 "$LEDGER" > "$DIR/cut.jsonl"
  if "$PEACE" audit verify "$DIR/cut.jsonl" >/dev/null; then
    fail "truncated ledger verified"
  fi

  echo "auditsmoke: ok (live /audit surfaces, sealed ledger verifies, tampering detected)"
}

# poll_alerts firing|resolved: wait until error-burn is (or is no longer)
# among the firing alerts
poll_alerts() {
  for _ in $(seq 1 "$2"); do
    if get '/alerts?state=firing' 2>/dev/null | grep -q '"rule":"error-burn"'; then
      [ "$1" = firing ] && return 0
    else
      [ "$1" = resolved ] && return 0
    fi
    sleep 0.25
  done
  return 1
}

smoke_alert() {
  grep -q "alert evaluator on" "$DIR/server.log" \
    || fail "evaluator did not announce itself" "$DIR/server.log"

  # before any trouble: /alerts answers with both rules, nothing firing
  get /alerts > "$DIR/quiet.json"
  grep -q '"rule":"error-burn"' "$DIR/quiet.json" \
    || fail "/alerts misses the burn rule" "$DIR/quiet.json"
  if grep -q '"state":"firing"' "$DIR/quiet.json"; then
    fail "rules firing before any load" "$DIR/quiet.json"
  fi

  # a burst where most requests carry garbage payloads: decode errors pile
  # onto service.errors_total while every connection still counts
  burst --duration 2 --impair malformed:0.9 >/dev/null

  poll_alerts firing 40 || {
    echo "alertsmoke: error-burn never fired under impaired load"
    get /alerts || true
    exit 1
  }

  # clean traffic refills the denominator; once the 5s short window holds
  # no errors the multi-window burn must resolve
  burst --duration 2 >/dev/null

  poll_alerts resolved 60 || {
    echo "alertsmoke: error-burn never resolved after the impairment stopped"
    get /alerts || true
    exit 1
  }
  get /alerts > "$DIR/after.json"
  grep -q '"rule":"error-burn","spec":"[^"]*","state":"resolved"' "$DIR/after.json" \
    || fail "burn rule not marked resolved" "$DIR/after.json"

  # the threshold rule stayed quiet throughout
  if grep -q '"rule":"queue-full","spec":"[^"]*","state":"firing"' "$DIR/after.json"; then
    fail "queue rule fired on a two-user smoke"
  fi

  stop_server

  echo "alertsmoke: ok (burn rule fired under impairment, resolved after recovery)"
}

"smoke_$MODE"
