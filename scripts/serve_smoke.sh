#!/usr/bin/env bash
# Smoke test of the learn-offline → bundle → serve-online path, end to
# end over real HTTP: learn wrappers for a tiny two-site DEALERS-style
# corpus, emit a v2 bundle, start `awrap serve` on an ephemeral port,
# and drive every endpoint with curl; then serve an LR bundle of the
# same corpus and check it lists no template replays. Run from the
# workspace root; CI's serve-smoke job calls this after
# `cargo build --release --bin awrap`.
set -euo pipefail

BIN=${AWRAP:-target/release/awrap}
[ -x "$BIN" ] || { echo "awrap binary not found at $BIN (cargo build --release --bin awrap)"; exit 1; }

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# ── A tiny corpus: two sites, two pages each, same script per site ──
mkdir -p "$TMP/sites/dealer-a" "$TMP/sites/dealer-b"
cat > "$TMP/sites/dealer-a/p0.html" <<'HTML'
<table class='stores'><tr><td><b>PORTER FURNITURE</b></td><td>201 Hwy 30</td></tr><tr><td><b>ACME BEDS</b></td><td>9 Elm St</td></tr></table>
HTML
cat > "$TMP/sites/dealer-a/p1.html" <<'HTML'
<table class='stores'><tr><td><b>ZETA SOFAS</b></td><td>4 Oak Ave</td></tr><tr><td><b>DELTA HOME</b></td><td>77 Pine Rd</td></tr></table>
HTML
cat > "$TMP/sites/dealer-b/p0.html" <<'HTML'
<div class='list'><tr><td><u>WOODLAND DECOR</u><br>123 Main St</td></tr><tr><td><u>OXFORD RUGS</u><br>8 Fir Ct</td></tr></div>
HTML
cat > "$TMP/sites/dealer-b/p1.html" <<'HTML'
<div class='list'><tr><td><u>TUPELO DESKS</u><br>55 Low Rd</td></tr><tr><td><u>ALBANY LAMPS</u><br>2 High St</td></tr></div>
HTML
printf 'PORTER FURNITURE\nDELTA HOME\nWOODLAND DECOR\nALBANY LAMPS\n' > "$TMP/dict.txt"

# ── Learn offline, emit a v2 bundle ─────────────────────────────────
"$BIN" learn --pages "$TMP/sites" --dict "$TMP/dict.txt" --bundle "$TMP/bundle.json"
grep -q '"format": "aw-bundle"' "$TMP/bundle.json"
grep -q '"dealer-a"' "$TMP/bundle.json"
grep -q '"dealer-b"' "$TMP/bundle.json"
echo "smoke: bundle learned and written"

# ── Serve on an ephemeral port ──────────────────────────────────────
"$BIN" serve --bundle "$TMP/bundle.json" --addr 127.0.0.1:0 --threads 2 > "$TMP/serve.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(grep -oE 'http://[0-9.]+:[0-9]+' "$TMP/serve.log" | head -1 || true)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server did not start:"; cat "$TMP/serve.log"; exit 1; }
echo "smoke: serving at $ADDR"

curl -sf "$ADDR/healthz" | grep -q '"status":"ok"'
curl -sf "$ADDR/wrappers" | grep -q '"site":"dealer-a"'

# ── Extract from a fresh page of dealer-a's script ──────────────────
cat > "$TMP/req.json" <<'JSON'
{"site":"dealer-a","html":"<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr><tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr></table>"}
JSON
RESPONSE=$(curl -sf -X POST "$ADDR/extract" --data @"$TMP/req.json")
echo "smoke: extract response: $RESPONSE"
echo "$RESPONSE" | grep -q '"OMEGA GROUP"'
echo "$RESPONSE" | grep -q '"SIGMA BROS"'

# Error surfaces stay JSON with the right statuses.
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$ADDR/extract" --data '{"site":"nope","html":""}')" = 404
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$ADDR/extract" --data 'garbage')" = 400

# ── Hot-swap the bundle over the wire, then extract again ───────────
curl -sf -X POST "$ADDR/wrappers" --data @"$TMP/bundle.json" | grep -q '"loaded":2'
curl -sf -X POST "$ADDR/extract" --data @"$TMP/req.json" | grep -q '"OMEGA GROUP"'

# ── Keep-alive pipelining: two POSTs on ONE connection ──────────────
# The reactor must answer both, in order, and honor `Connection: close`
# on the second. Raw bytes through /dev/tcp — curl cannot pipeline.
HOSTPORT=${ADDR#http://}
B1='{"site":"dealer-a","html":"<table class=stores><tr><td><b>KEEPALIVE ONE</b></td><td>1 Elm</td></tr></table>"}'
B2='{"site":"dealer-a","html":"<table class=stores><tr><td><b>KEEPALIVE TWO</b></td><td>2 Oak</td></tr></table>"}'
exec 3<>"/dev/tcp/${HOSTPORT%%:*}/${HOSTPORT##*:}"
printf 'POST /extract HTTP/1.1\r\nContent-Length: %d\r\n\r\n%sPOST /extract HTTP/1.1\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s' \
  "${#B1}" "$B1" "${#B2}" "$B2" >&3
PIPELINED=$(cat <&3)
exec 3<&- 3>&-
# (Not line-anchored: the first body runs straight into the second
# status line — JSON bodies carry no trailing newline.)
test "$(printf '%s' "$PIPELINED" | grep -o 'HTTP/1.1 200' | wc -l)" = 2
printf '%s' "$PIPELINED" | grep -q 'Connection: keep-alive'
printf '%s' "$PIPELINED" | grep -q 'Connection: close'
printf '%s' "$PIPELINED" | grep -q 'KEEPALIVE ONE'
printf '%s' "$PIPELINED" | grep -q 'KEEPALIVE TWO'
# In-order: the first request's values precede the second's.
test "$(printf '%s' "$PIPELINED" | grep -oE 'KEEPALIVE (ONE|TWO)' | head -1)" = 'KEEPALIVE ONE'
echo "smoke: keep-alive pipelining answered both requests in order"

# ── The /wrappers latency object reports sane percentiles ───────────
LISTING=$(curl -sf "$ADDR/wrappers")
echo "$LISTING" | grep -q '"latency"'
echo "$LISTING" | grep -qE '"count":[1-9]'
echo "$LISTING" | grep -q '"p50_us"'
echo "$LISTING" | grep -q '"p99_us"'
echo "$LISTING" | grep -qE '"max_us":[1-9]'
echo "smoke: request-latency percentiles populated"

# ── The /wrappers parse object accounts the streaming request path ──
# Every page served so far went through the one-pass streaming
# parse→index (the default), so pages == stream, fallback stays 0, and
# the cumulative parse time has accrued.
echo "$LISTING" | grep -q '"parse"'
echo "$LISTING" | grep -qE '"pages":[1-9]'
echo "$LISTING" | grep -qE '"stream":[1-9]'
echo "$LISTING" | grep -q '"fallback":0'
echo "$LISTING" | grep -qE '"micros":[1-9]'
echo "smoke: streaming parse counters advanced"

kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ── Pack the v2 bundle into the v3 binary format and round-trip it ──
"$BIN" bundle pack --in "$TMP/bundle.json" --out "$TMP/bundle.awb"
"$BIN" bundle inspect --in "$TMP/bundle.awb" | tee "$TMP/inspect.log"
grep -q 'aw-bundle-bin v3' "$TMP/inspect.log"
grep -q 'dealer-a' "$TMP/inspect.log"
grep -q 'dealer-b' "$TMP/inspect.log"
"$BIN" bundle unpack --in "$TMP/bundle.awb" --out "$TMP/bundle.roundtrip.json"
cmp "$TMP/bundle.json" "$TMP/bundle.roundtrip.json"
echo "smoke: v3 pack/inspect/unpack round-trips byte-identically"

# ── Serve the binary bundle lazily with a one-site residency cap ────
"$BIN" serve --bundle "$TMP/bundle.awb" --lazy --max-resident 1 --addr 127.0.0.1:0 --threads 2 > "$TMP/serve-lazy.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(grep -oE 'http://[0-9.]+:[0-9]+' "$TMP/serve-lazy.log" | head -1 || true)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "lazy server did not start:"; cat "$TMP/serve-lazy.log"; exit 1; }
grep -q 'opened v3 bundle lazily' "$TMP/serve-lazy.log"
echo "smoke: lazy serving at $ADDR"

# Both sites answer (faulted in on demand), even though at most one
# wrapper is resident at a time.
curl -sf -X POST "$ADDR/extract" --data @"$TMP/req.json" | grep -q '"OMEGA GROUP"'
cat > "$TMP/req-b.json" <<'JSON'
{"site":"dealer-b","html":"<div class='list'><tr><td><u>OMEGA GROUP</u><br>9 Elm</td></tr><tr><td><u>SIGMA BROS</u><br>7 Oak</td></tr></div>"}
JSON
curl -sf -X POST "$ADDR/extract" --data @"$TMP/req-b.json" | grep -q '"SIGMA BROS"'
curl -sf -X POST "$ADDR/extract" --data @"$TMP/req.json" | grep -q '"OMEGA GROUP"'

# The listing reports residency: both sites indexed, cap 1, and the
# traffic accounted for — dealer-a and dealer-b each faulted once, and
# dealer-a's return trip was reinstated from the grace window rather
# than re-deserialized.
LISTING=$(curl -sf "$ADDR/wrappers")
echo "smoke: lazy listing: $LISTING"
echo "$LISTING" | grep -q '"residency"'
echo "$LISTING" | grep -q '"max_resident":1'
echo "$LISTING" | grep -q '"store_sites":2'
echo "$LISTING" | grep -q '"faults":2'
echo "$LISTING" | grep -q '"grace_hits":1'

kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ── An LR bundle: served without any xpath template cache ───────────
"$BIN" learn --pages "$TMP/sites" --dict "$TMP/dict.txt" --lang lr --bundle "$TMP/bundle-lr.json"
grep -q '"language": "LR"' "$TMP/bundle-lr.json"
"$BIN" serve --bundle "$TMP/bundle-lr.json" --addr 127.0.0.1:0 --threads 2 > "$TMP/serve-lr.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(grep -oE 'http://[0-9.]+:[0-9]+' "$TMP/serve-lr.log" | head -1 || true)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "LR server did not start:"; cat "$TMP/serve-lr.log"; exit 1; }
echo "smoke: LR bundle serving at $ADDR"
RESPONSE=$(curl -sf -X POST "$ADDR/extract" --data @"$TMP/req.json")
echo "smoke: LR extract response: $RESPONSE"
echo "$RESPONSE" | grep -q '"OMEGA GROUP"'
echo "$RESPONSE" | grep -q '"SIGMA BROS"'
# Only xpath wrappers keep a template cache: the LR site that just
# served a page lists `"replay":null` (the entry runs up to its health
# object's first brace).
LISTING=$(curl -sf "$ADDR/wrappers")
echo "$LISTING" | grep -o '"site":"dealer-a"[^}]*' | grep -q '"language":"LR".*"replay":null'
if echo "$LISTING" | grep -q '"full_replays"'; then
  echo "LR wrappers must not report template replays: $LISTING"; exit 1
fi
echo "smoke: LR site lists no template replays"

kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "smoke: serve-smoke passed"
