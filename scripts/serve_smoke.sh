#!/usr/bin/env bash
# serve-smoke: end-to-end check of the darwind serving path.
#   1. build darwind, darwin-client, genomesim, readsim
#   2. generate a synthetic genome + simulated reads
#   3. start darwind, wait for /readyz
#   4. fire darwin-client at it, assert non-empty SAM output
#   5. assert /v1/indexes reports the sharded index's per-shard residency
#   6. SIGTERM darwind, assert clean drain (exit 0 + drain log line)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "serve-smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/darwin-client ./cmd/genomesim ./cmd/readsim ./cmd/darwin-index

echo "serve-smoke: generating synthetic genome and reads"
"$tmp/bin/genomesim" -len 150000 -seed 7 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 48 -len 1200 -seed 9 -out "$tmp/reads.fq" 2>/dev/null

"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -k 11 -n 400 -h 20 \
    -shards 4 -shard-mem 256M \
    -report "$tmp/darwind_report.json" 2> "$tmp/darwind.log" &
pid=$!

addr=""
for _ in $(seq 1 200); do
    addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$tmp/darwind.log" | head -1)
    if [ -n "$addr" ]; then
        if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            break
        fi
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: FAIL — darwind exited early:" >&2
        cat "$tmp/darwind.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: FAIL — darwind never became ready:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
echo "serve-smoke: darwind ready on $addr"

"$tmp/bin/darwin-client" -addr "$addr" -reads "$tmp/reads.fq" \
    -requests 24 -concurrency 4 -batch 4 -out "$tmp/out.sam"

if ! grep -qv '^@' "$tmp/out.sam"; then
    echo "serve-smoke: FAIL — no SAM records in client output" >&2
    exit 1
fi
records=$(grep -cv '^@' "$tmp/out.sam")
echo "serve-smoke: client received $records SAM records"

# The index is served sharded (-shards 4): /v1/indexes must report the
# shard geometry and per-shard residency after the mapping traffic.
curl -fsS "http://$addr/v1/indexes" > "$tmp/indexes.json"
if ! grep -q '"shards": 4' "$tmp/indexes.json"; then
    echo "serve-smoke: FAIL — /v1/indexes reports no 4-shard geometry:" >&2
    cat "$tmp/indexes.json" >&2
    exit 1
fi
if ! grep -Eq '"resident": [1-9]' "$tmp/indexes.json"; then
    echo "serve-smoke: FAIL — /v1/indexes reports no resident shards:" >&2
    cat "$tmp/indexes.json" >&2
    exit 1
fi
if ! grep -q '"shard_detail"' "$tmp/indexes.json" || ! grep -Eq '"resident": true' "$tmp/indexes.json"; then
    echo "serve-smoke: FAIL — /v1/indexes has no per-shard residency detail:" >&2
    cat "$tmp/indexes.json" >&2
    exit 1
fi
echo "serve-smoke: sharded index residency reported on /v1/indexes"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: FAIL — darwind exited non-zero on SIGTERM:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
pid=""
if ! grep -q "drain complete" "$tmp/darwind.log"; then
    echo "serve-smoke: FAIL — no clean-drain log line:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
if [ ! -s "$tmp/darwind_report.json" ]; then
    echo "serve-smoke: FAIL — darwind wrote no run report" >&2
    exit 1
fi
echo "serve-smoke: OK (clean drain, run report written)"

# ---------------------------------------------------------------------------
# Phase 2: cold boot from a prebuilt index. darwind maps the .dwi file
# instead of building, so the first request must be served with zero
# index-build work — asserted off /metrics, where a no-build boot shows
# index_load fired and index_build / shard_builds never did.
# ---------------------------------------------------------------------------
echo "serve-smoke: phase 2 — cold boot from a prebuilt index"
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -out "$tmp/ref.dwi" \
    -k 11 -n 400 -h 20 -shards 4 2>/dev/null

"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" -index "$tmp/ref.dwi" \
    -k 11 -n 400 -h 20 \
    -shards 4 -shard-mem 256M 2> "$tmp/darwind2.log" &
pid=$!

addr=""
for _ in $(seq 1 200); do
    addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$tmp/darwind2.log" | head -1)
    if [ -n "$addr" ]; then
        if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            break
        fi
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: FAIL — index-boot darwind exited early:" >&2
        cat "$tmp/darwind2.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: FAIL — index-boot darwind never became ready:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi
if ! grep -q "index mapped from file" "$tmp/darwind2.log"; then
    echo "serve-smoke: FAIL — darwind did not log the mapped index load:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi
echo "serve-smoke: index-boot darwind ready on $addr"

"$tmp/bin/darwin-client" -addr "$addr" -reads "$tmp/reads.fq" \
    -requests 8 -concurrency 2 -batch 4 -out "$tmp/out2.sam"
if ! grep -qv '^@' "$tmp/out2.sam"; then
    echo "serve-smoke: FAIL — no SAM records from the index-boot server" >&2
    exit 1
fi

curl -fsS "http://$addr/metrics" > "$tmp/metrics2.txt"
metric() { awk -v m="$1" '$1 == m { print $2; exit }' "$tmp/metrics2.txt"; }
loads=$(metric darwin_server_index_load_calls_total)
builds=$(metric darwin_server_index_build_calls_total)
fileloads=$(metric darwin_index_loads_total)
shardbuilds=$(metric darwin_shard_builds_total)
shardloads=$(metric darwin_shard_loads_total)
mappedbytes=$(metric darwin_index_mapped_bytes)
if [ "${loads:-0}" -lt 1 ] || [ "${fileloads:-0}" -lt 1 ]; then
    echo "serve-smoke: FAIL — no index load recorded (server_index_load=$loads index_loads=$fileloads)" >&2
    exit 1
fi
if [ "${builds:-0}" != 0 ] || [ "${shardbuilds:-0}" != 0 ]; then
    echo "serve-smoke: FAIL — index-boot server still built (index_build=$builds shard_builds=$shardbuilds)" >&2
    exit 1
fi
if [ "${shardloads:-0}" -lt 1 ]; then
    echo "serve-smoke: FAIL — no shard tables served from the mapping (shard_loads=$shardloads)" >&2
    exit 1
fi
if [ "${mappedbytes:-0}" -lt 1 ]; then
    echo "serve-smoke: FAIL — mapped-bytes gauge is $mappedbytes" >&2
    exit 1
fi
echo "serve-smoke: first request served with zero builds (index_load=$loads shard_loads=$shardloads mapped_bytes=$mappedbytes)"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: FAIL — index-boot darwind exited non-zero on SIGTERM:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi
pid=""
if ! grep -q "drain complete" "$tmp/darwind2.log"; then
    echo "serve-smoke: FAIL — index-boot darwind had no clean-drain log line:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi
echo "serve-smoke: OK (prebuilt-index boot served without a build pass)"
