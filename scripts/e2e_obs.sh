#!/usr/bin/env bash
# e2e_obs.sh — end-to-end test of the observability surface against a real
# fmserve. Three contracts:
#
#   1. Exposition sanity: GET /metrics parses as Prometheus text (HELP/TYPE
#      per family, histograms have cumulative le-buckets ending in +Inf with
#      bucket[+Inf] == count), the counters agree with the traffic just
#      served, and /v1/stats reports the same numbers — one source of truth.
#   2. Durability: fm_epsilon_spent for a tenant equals the WAL-replayed
#      spend after a kill -9 restart, i.e. the scrape surface and the
#      accounting surface can never tell different stories about ε.
#   3. Redaction: a sentinel value planted in ingested records and a fit's
#      released coefficients never appear in /metrics, /v1/debug/traces, or
#      the structured trace log. Identifiers (tenant/stream names) do appear
#      — that is the approved vocabulary, not a leak.
set -euo pipefail

cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "e2e-obs: SKIP: jq not installed" >&2; exit 0; }

ADDR="127.0.0.1:${FMSERVE_OBS_PORT:-8078}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SNAPDIR="$WORKDIR/snapshots"
WALDIR="$WORKDIR/wal"
SERVER_PID=""

# cleanup runs on every exit, signals included (their traps exit, which
# fires the EXIT trap), so no server outlives the script.
cleanup() {
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
  echo "e2e-obs: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$WORKDIR/server.log" >&2 || true
  exit 1
}

start_server() {
  "$WORKDIR/fmserve" -addr "$ADDR" -snapshot-dir "$SNAPDIR" -snapshot-every 0 \
    -wal-dir "$WALDIR" -trace-log -gen income=us:400:1 \
    >>"$WORKDIR/server.log" 2>&1 &
  SERVER_PID=$!
  for i in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before becoming healthy"
    sleep 0.1
  done
  fail "server never became healthy"
}

metric() { # metric NAME -> value of the exact-match sample line
  grep -E "^$1 " "$WORKDIR/metrics.txt" | awk '{print $2}'
}

echo "e2e-obs: building fmserve"
go build -o "$WORKDIR/fmserve" ./cmd/fmserve

echo "e2e-obs: phase 1 — traffic, then exposition sanity"
start_server

code=$(curl -s -o "$WORKDIR/tenant.json" -w '%{http_code}' -X POST "$BASE/v1/tenants" \
  -H 'Content-Type: application/json' -d '{"name":"acme","budget":2.0}')
[ "$code" = 201 ] || fail "tenant creation returned $code: $(cat "$WORKDIR/tenant.json")"

# SENTINEL is a value that exists only inside record data: it is ingested as
# a feature value below and must never surface in any telemetry output.
SENTINEL="7.7391113"
stream_def='{"name":"readings","intercept":true,
  "schema":{"features":[{"name":"x1","min":0,"max":10},{"name":"x2","min":0,"max":5}],
            "target":{"name":"y","min":0,"max":50}}}'
code=$(curl -s -o "$WORKDIR/stream.json" -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$stream_def")
[ "$code" = 201 ] || fail "stream creation returned $code: $(cat "$WORKDIR/stream.json")"
code=$(curl -s -o "$WORKDIR/ingest.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/ingest" \
  -H 'Content-Type: application/json' \
  -d "{\"rows\":[[$SENTINEL,1.5,25.0],[2.25,3.125,18.5],[9.875,0.5,42.0]]}")
[ "$code" = 200 ] || fail "ingest returned $code: $(cat "$WORKDIR/ingest.json")"

# Three fits at 0.5 succeed; the fourth exhausts the 2.0 budget (3×0.5 + the
# refit's 0.5 = 2.0) only after the refit below, so run fits first.
for i in 1 2 3; do
  code=$(curl -s -o "$WORKDIR/fit$i.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
    -H "X-Request-Id: e2eobs0000000$i" -H 'Content-Type: application/json' \
    -d '{"tenant":"acme","dataset":"income","model":"linear","epsilon":0.5}')
  [ "$code" = 200 ] || fail "fit $i returned $code: $(cat "$WORKDIR/fit$i.json")"
done
code=$(curl -s -o "$WORKDIR/refit.json" -w '%{http_code}' -X POST "$BASE/v1/streams/readings/refit" \
  -H 'Content-Type: application/json' \
  -d '{"tenant":"acme","model":"linear","epsilon":0.5,"options":{"seed":42}}')
[ "$code" = 200 ] || fail "refit returned $code: $(cat "$WORKDIR/refit.json")"
code=$(curl -s -o "$WORKDIR/overbudget.json" -w '%{http_code}' -X POST "$BASE/v1/fit" \
  -H 'Content-Type: application/json' \
  -d '{"tenant":"acme","dataset":"income","model":"linear","epsilon":0.5}')
[ "$code" = 402 ] || fail "over-budget fit returned $code, want 402"

curl -fsS "$BASE/metrics" > "$WORKDIR/metrics.txt" || fail "GET /metrics failed"

# Structural parse: every sample line's family has HELP and TYPE; histogram
# le-buckets are cumulative and end at +Inf == _count.
awk '
  /^# HELP / { help[$3] = 1; next }
  /^# TYPE / { type[$3] = 1; next }
  /^$/ { next }
  {
    # name{labels} value — label values may contain spaces, so the metric
    # name is the leading identifier and the value is the last field.
    if (!match($0, /^[a-zA-Z_][a-zA-Z0-9_]*/)) { print "bad line: " $0; exit 1 }
    name = substr($0, 1, RLENGTH)
    fam = name
    sub(/_bucket$/, "", fam); sub(/_sum$/, "", fam); sub(/_count$/, "", fam)
    if (!(fam in help) && !(name in help)) { print "no HELP for " $0; exit 1 }
    if (!(fam in type) && !(name in type)) { print "no TYPE for " $0; exit 1 }
    v = $NF
    if (v !~ /^[-+0-9.eE]+$/ && v != "+Inf" && v != "NaN") { print "bad value: " $0; exit 1 }
  }
' "$WORKDIR/metrics.txt" || fail "exposition failed structural parse"

grep -q 'fm_fit_seconds_bucket{le="+Inf"} 3' "$WORKDIR/metrics.txt" \
  || fail "fm_fit_seconds +Inf bucket != 3 successful fits"
[ "$(metric fm_fit_seconds_count)" = 3 ] || fail "fm_fit_seconds_count = $(metric fm_fit_seconds_count), want 3"
[ "$(metric fm_fits_total)" = 3 ] || fail "fm_fits_total = $(metric fm_fits_total), want 3"
[ "$(metric fm_fits_refused_budget_total)" = 1 ] \
  || fail "fm_fits_refused_budget_total = $(metric fm_fits_refused_budget_total), want 1"
[ "$(metric fm_fits_error_total)" = 0 ] || fail "fm_fits_error_total = $(metric fm_fits_error_total), want 0"
[ "$(metric fm_refits_total)" = 1 ] || fail "fm_refits_total = $(metric fm_refits_total), want 1"
[ "$(metric fm_ingest_records_total)" = 3 ] || fail "fm_ingest_records_total = $(metric fm_ingest_records_total), want 3"
grep -q 'fm_refusals_total{reason="budget_exhausted"} 1' "$WORKDIR/metrics.txt" \
  || fail "fm_refusals_total{budget_exhausted} != 1"
grep -q 'fm_epsilon_spent{tenant="acme"} 2' "$WORKDIR/metrics.txt" \
  || fail "fm_epsilon_spent{acme} != 2 after 3 fits + 1 refit at 0.5"

# /metrics and /v1/stats are the same source of truth.
stats_fits=$(curl -fsS "$BASE/v1/stats" | jq '.fits_total')
[ "$stats_fits" = "$(metric fm_fits_total)" ] \
  || fail "/v1/stats fits_total ($stats_fits) != fm_fits_total ($(metric fm_fits_total))"

# The traced fit shows its pipeline spans.
curl -fsS "$BASE/v1/debug/traces" > "$WORKDIR/traces.json" || fail "GET /v1/debug/traces failed"
for span in handler queue_wait kernel solve noise wal_fsync; do
  jq -e --arg s "$span" \
    '[.traces[] | select(.id=="e2eobs00000001") | .spans[] | select(.name==$s)] | length > 0' \
    "$WORKDIR/traces.json" >/dev/null \
    || fail "trace e2eobs00000001 missing span $span"
done
# Fit 1 sealed the dataset (cache=miss, the kernel span above); fits 2-3
# released from the sealed accumulator: cache=hit and no kernel span.
cache_of() { # cache_of ID -> the dataset span's cache attribute
  jq -r --arg id "$1" \
    '[.traces[] | select(.id==$id) | .spans[] | select(.name=="dataset") | .attrs.cache][0]' \
    "$WORKDIR/traces.json"
}
[ "$(cache_of e2eobs00000001)" = miss ] || fail "fit 1 dataset span cache=$(cache_of e2eobs00000001), want miss"
for i in 2 3; do
  [ "$(cache_of e2eobs0000000$i)" = hit ] || fail "fit $i dataset span cache=$(cache_of e2eobs0000000$i), want hit"
  jq -e --arg id "e2eobs0000000$i" \
    '[.traces[] | select(.id==$id) | .spans[] | select(.name=="kernel")] | length == 0' \
    "$WORKDIR/traces.json" >/dev/null \
    || fail "fit $i hit the seal cache but still ran a kernel span"
done
[ "$(metric fm_dataset_seals_total)" = 1 ] \
  || fail "fm_dataset_seals_total = $(metric fm_dataset_seals_total), want 1 (three fits, one fold shape)"

echo "e2e-obs: phase 2 — kill -9; scraped ε-spend must match WAL-replayed spend"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
start_server

replayed=$(curl -fsS "$BASE/v1/tenants/acme" | jq '.epsilon_spent')
curl -fsS "$BASE/metrics" > "$WORKDIR/metrics.txt"
scraped=$(grep -E '^fm_epsilon_spent\{tenant="acme"\} ' "$WORKDIR/metrics.txt" | awk '{print $2}')
[ -n "$scraped" ] || fail "fm_epsilon_spent{acme} absent after restart"
jq -en "$scraped == $replayed" >/dev/null \
  || fail "scraped fm_epsilon_spent ($scraped) != WAL-replayed epsilon_spent ($replayed)"
jq -en "$replayed == 2" >/dev/null \
  || fail "WAL-replayed spend = $replayed, want 2"

echo "e2e-obs: phase 3 — planted sentinel never crosses the redaction boundary"
# Re-create the stream (data died with the crash, by design) and plant the
# sentinel again in this incarnation, then pull every telemetry surface.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/streams" \
  -H 'Content-Type: application/json' -d "$stream_def")
[ "$code" = 201 ] || fail "stream re-creation returned $code"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/streams/readings/ingest" \
  -H 'Content-Type: application/json' \
  -d "{\"rows\":[[$SENTINEL,1.5,25.0]]}")
[ "$code" = 200 ] || fail "sentinel re-ingest returned $code"

curl -fsS "$BASE/metrics" > "$WORKDIR/metrics.txt"
curl -fsS "$BASE/v1/debug/traces" > "$WORKDIR/traces.json"
for surface in metrics.txt traces.json server.log; do
  if grep -qF -- "$SENTINEL" "$WORKDIR/$surface"; then
    fail "sentinel record value leaked into $surface"
  fi
done
# Released coefficients are post-noise and public, but must still stay out
# of telemetry: spans carry durations and dims, never weights.
w0=$(jq -r '.weights[0]' "$WORKDIR/fit1.json")
for surface in metrics.txt traces.json; do
  if [ -n "$w0" ] && [ "$w0" != null ] && grep -qF -- "$w0" "$WORKDIR/$surface"; then
    fail "model coefficient $w0 leaked into $surface"
  fi
done
# Positive control: the approved identifier vocabulary IS present, proving
# the greps above looked at real telemetry.
grep -q 'tenant="acme"' "$WORKDIR/metrics.txt" || fail "tenant label absent from metrics"
grep -q '"trace"' "$WORKDIR/server.log" || fail "structured trace log lines absent from server log"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "e2e-obs: PASS"
