#!/usr/bin/env bash
# metrics-lint: validate the OpenMetrics exposition of a live darwind.
#   1. build darwind, genomesim, readsim, metricslint
#   2. start darwind on a synthetic genome, wait for /readyz
#   3. push one mapping request through so the serving-path metrics
#      (core/*, shard/*, server/*) all have samples
#   4. scrape /metrics and lint it (syntax, duplicate families,
#      samples without a declared family, histogram bucket invariants)
#   5. assert the expected metric namespaces appear, and that
#      /v1/stats serves the rolling-window SLO JSON
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "metrics-lint: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/genomesim ./cmd/readsim ./cmd/metricslint

echo "metrics-lint: generating synthetic genome and reads"
"$tmp/bin/genomesim" -len 80000 -seed 11 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 8 -len 1000 -seed 12 -out "$tmp/reads.fq" 2>/dev/null

"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -k 11 -n 400 -h 20 -shards 2 2> "$tmp/darwind.log" &
pid=$!

addr=""
for _ in $(seq 1 200); do
    addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$tmp/darwind.log" | head -1)
    if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "metrics-lint: FAIL — darwind exited early:" >&2
        cat "$tmp/darwind.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "metrics-lint: FAIL — darwind never became ready" >&2
    exit 1
fi

# One mapping request so the core/shard/server serving metrics exist.
seq=$(sed -n 2p "$tmp/reads.fq")
curl -fsS -X POST "http://$addr/v1/map" -H 'Content-Type: application/json' \
    -d "{\"reads\":[{\"name\":\"r1\",\"seq\":\"$seq\"}]}" >/dev/null

curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt"
"$tmp/bin/metricslint" < "$tmp/metrics.txt"

for want in darwin_core_reads_total darwin_shard_ darwin_server_ \
    darwin_gact_first_tile_reject_seconds_total "# EOF"; do
    if ! grep -q "$want" "$tmp/metrics.txt"; then
        echo "metrics-lint: FAIL — /metrics missing expected content: $want" >&2
        exit 1
    fi
done

# The default kernel mode is auto: a mapped high-identity read must
# have routed at least one extension tile through the bitvector tier.
if ! grep -Eq '^darwin_gact_tile_bitvector_total [1-9]' "$tmp/metrics.txt"; then
    echo "metrics-lint: FAIL — darwin_gact_tile_bitvector_total missing or zero:" >&2
    grep darwin_gact_tile "$tmp/metrics.txt" >&2 || true
    exit 1
fi

# The SLO endpoint must serve both windows with a non-zero request
# count after the traffic above, and the first-tile reject share of
# the alignment stage.
curl -fsS "http://$addr/v1/stats" > "$tmp/stats.json"
for want in '"1m"' '"5m"' '"map_latency_ms_p99"' '"reject_share"'; do
    if ! grep -q "$want" "$tmp/stats.json"; then
        echo "metrics-lint: FAIL — /v1/stats missing $want:" >&2
        cat "$tmp/stats.json" >&2
        exit 1
    fi
done
if ! grep -Eq '"requests": [1-9]' "$tmp/stats.json"; then
    echo "metrics-lint: FAIL — /v1/stats windows saw no requests:" >&2
    cat "$tmp/stats.json" >&2
    exit 1
fi

kill -TERM "$pid"
wait "$pid" || true
pid=""
echo "metrics-lint: OK (exposition valid, SLO windows live)"
