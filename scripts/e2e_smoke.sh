#!/usr/bin/env bash
# e2e_smoke.sh — end-to-end smoke test for fmserve, run by the CI e2e job
# and runnable locally: builds the server, starts it against a generated
# census dataset, registers a tenant whose budget admits exactly three fits,
# drives three concurrent fits (all must succeed), asserts the fourth is
# refused with the typed budget_exhausted 402, and checks the server drains
# cleanly on SIGTERM (non-zero exit of the drain fails the job).
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${FMSERVE_PORT:-8077}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVER_PID=""

CURL_PIDS=() # backgrounded requests; cleanup kills any still running

# cleanup runs on every exit, signals included (their traps exit, which
# fires the EXIT trap), so no server or curl outlives the script.
cleanup() {
  local pid
  for pid in "${CURL_PIDS[@]}"; do
    pkill -9 -P "$pid" 2>/dev/null || true
    kill -9 "$pid" 2>/dev/null || true
  done
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT
trap 'exit 129' HUP
trap 'exit 130' INT
trap 'exit 143' TERM

fail() {
  echo "e2e: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$WORKDIR/server.log" >&2 || true
  exit 1
}

echo "e2e: building fmserve"
go build -o "$WORKDIR/fmserve" ./cmd/fmserve

echo "e2e: starting fmserve on $ADDR against a generated dataset"
"$WORKDIR/fmserve" -addr "$ADDR" -gen income=us:4000:1 \
  >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before becoming healthy"
  sleep 0.1
  [ "$i" = 100 ] && fail "server never became healthy"
done
echo "e2e: healthy"

echo "e2e: registering tenant (budget admits exactly 3 fits of ε=1.0)"
code=$(curl -s -o "$WORKDIR/tenant.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"acme","budget":3.0}')
[ "$code" = 201 ] || fail "tenant creation returned $code: $(cat "$WORKDIR/tenant.json")"

fit_body='{"tenant":"acme","dataset":"income","model":"linear","epsilon":1.0,"options":{"intercept":true}}'

echo "e2e: driving 3 concurrent fits"
for i in 1 2 3; do
  curl -s -o "$WORKDIR/fit$i.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
    -H 'Content-Type: application/json' -d "$fit_body" >"$WORKDIR/code$i" &
  CURL_PIDS+=("$!")
done
# Wait on the curl PIDs only: a bare `wait` would also wait on the server.
for pid in "${CURL_PIDS[@]}"; do
  wait "$pid" || fail "concurrent fit request (pid $pid) failed"
done
CURL_PIDS=()

for i in 1 2 3; do
  code=$(cat "$WORKDIR/code$i")
  [ "$code" = 200 ] || fail "concurrent fit $i returned $code: $(cat "$WORKDIR/fit$i.json")"
done
echo "e2e: 3 concurrent fits all returned 200"

echo "e2e: fourth fit must be refused for budget exhaustion"
code=$(curl -s -o "$WORKDIR/fit4.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
  -H 'Content-Type: application/json' -d "$fit_body")
case "$code" in
  4*) ;;
  *) fail "fourth fit returned $code, want a 4xx: $(cat "$WORKDIR/fit4.json")" ;;
esac
grep -q '"budget_exhausted"' "$WORKDIR/fit4.json" \
  || fail "fourth fit lacked the typed budget_exhausted error: $(cat "$WORKDIR/fit4.json")"
echo "e2e: fourth fit refused with $code budget_exhausted"

echo "e2e: checking accounting via /v1/stats"
curl -fsS "$BASE/v1/stats" >"$WORKDIR/stats.json" || fail "stats endpoint unreachable"
grep -q '"fits_total": 3' "$WORKDIR/stats.json" || fail "stats fits_total != 3: $(cat "$WORKDIR/stats.json")"
grep -q '"epsilon_remaining": 0' "$WORKDIR/stats.json" || fail "budget not fully spent: $(cat "$WORKDIR/stats.json")"

echo "e2e: graceful shutdown (SIGTERM must drain and exit 0)"
kill -TERM "$SERVER_PID"
drain_status=0
wait "$SERVER_PID" || drain_status=$?
SERVER_PID=""
[ "$drain_status" = 0 ] || fail "server exited $drain_status on SIGTERM"

echo "e2e: PASS"
