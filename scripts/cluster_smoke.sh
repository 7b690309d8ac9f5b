#!/usr/bin/env bash
# cluster-smoke: end-to-end check of the distributed scatter-gather
# tier (darwin-router + darwind cluster workers).
#   1. build binaries, generate a synthetic genome + reads, build one
#      shared .dwi index
#   2. map everything through a monolithic darwind -> mono.sam
#   3. boot 2 cluster workers from the shared .dwi (replication 2, so
#      each worker owns every shard) and a router over them
#   4. map the same reads through the router and assert the SAM is
#      byte-identical to the monolith, the router's /metrics lints
#      clean, and its /v1/stats and /debug/slow answer
#   5. SIGSTOP whichever worker is primary for shard 0: sub-requests
#      to it hang, the hedge fires after -hedge-delay, the survivor
#      answers — the batch must complete, stay byte-identical,
#      darwin_cluster_hedge_fired_total must go positive, and the
#      router must have logged nothing at ERROR
#   6. SIGKILL the stopped worker: connections now fail outright, the
#      router fails over immediately — still byte-identical
#   7. SIGTERM the router, assert clean drain
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# wait_ready LOGFILE PID — scrape "serving on http://ADDR/" from a
# darwind/darwin-router log and wait for /readyz; echoes the address.
wait_ready() {
    local log=$1 pid=$2 addr=""
    for _ in $(seq 1 300); do
        addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$log" | head -1)
        if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            echo "$addr"
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "cluster-smoke: FAIL — process exited early:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "cluster-smoke: FAIL — never became ready:" >&2
    cat "$log" >&2
    return 1
}

echo "cluster-smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/darwin-router ./cmd/darwin-client \
    ./cmd/darwin-index ./cmd/genomesim ./cmd/readsim ./cmd/metricslint

echo "cluster-smoke: generating genome, reads, and the shared .dwi index"
"$tmp/bin/genomesim" -len 150000 -seed 21 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 32 -len 1200 -seed 22 -out "$tmp/reads.fq" 2>/dev/null
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -k 11 -n 400 -h 20 -shards 4 2>/dev/null
[ -f "$tmp/ref.fa.dwi" ] || { echo "cluster-smoke: FAIL — no .dwi written" >&2; exit 1; }

engine_flags=(-k 11 -n 400 -h 20 -shards 4)

echo "cluster-smoke: mapping through a monolithic darwind"
"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" -index "$tmp/ref.fa.dwi" \
    "${engine_flags[@]}" 2> "$tmp/mono.log" &
mono_pid=$!; pids+=("$mono_pid")
mono_addr=$(wait_ready "$tmp/mono.log" "$mono_pid")
# -concurrency 1 keeps request order deterministic so SAM files diff.
"$tmp/bin/darwin-client" -addr "$mono_addr" -reads "$tmp/reads.fq" \
    -requests 8 -concurrency 1 -batch 4 -out "$tmp/mono.sam" >/dev/null
kill -TERM "$mono_pid"; wait "$mono_pid" || true

# Workers derive shard ownership from the roster *names* (rendezvous
# hashing), so they can boot before any port is known; the router gets
# the same names bound to the real scraped addresses.
echo "cluster-smoke: booting 2 cluster workers from the shared .dwi"
worker_roster_names='w0=placeholder:1,w1=placeholder:2'
"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" -index "$tmp/ref.fa.dwi" \
    "${engine_flags[@]}" -worker-name w0 -cluster-workers "$worker_roster_names" \
    -cluster-replication 2 2> "$tmp/w0.log" &
w0_pid=$!; pids+=("$w0_pid")
"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" -index "$tmp/ref.fa.dwi" \
    "${engine_flags[@]}" -worker-name w1 -cluster-workers "$worker_roster_names" \
    -cluster-replication 2 2> "$tmp/w1.log" &
w1_pid=$!; pids+=("$w1_pid")
# Workers are torn down with SIGKILL (that is the point of the test);
# disown them so bash does not report the kills as job failures.
disown "$w0_pid" "$w1_pid"
w0_addr=$(wait_ready "$tmp/w0.log" "$w0_pid")
w1_addr=$(wait_ready "$tmp/w1.log" "$w1_pid")
for log in "$tmp/w0.log" "$tmp/w1.log"; do
    if ! grep -q "cluster worker mode" "$log"; then
        echo "cluster-smoke: FAIL — worker did not enter cluster mode:" >&2
        cat "$log" >&2
        exit 1
    fi
done

echo "cluster-smoke: booting the router over $w0_addr + $w1_addr"
"$tmp/bin/darwin-router" -addr 127.0.0.1:0 \
    -workers "w0=$w0_addr,w1=$w1_addr" -replication 2 \
    -hedge-delay 50ms 2> "$tmp/router.log" &
router_pid=$!; pids+=("$router_pid")
router_addr=$(wait_ready "$tmp/router.log" "$router_pid")
if ! grep -q "cluster probe passed" "$tmp/router.log"; then
    echo "cluster-smoke: FAIL — no probe-passed line:" >&2
    cat "$tmp/router.log" >&2
    exit 1
fi

echo "cluster-smoke: mapping through the router (both workers healthy)"
"$tmp/bin/darwin-client" -target "$router_addr" -reads "$tmp/reads.fq" \
    -requests 8 -concurrency 1 -batch 4 -out "$tmp/cluster.sam" >/dev/null
if ! cmp -s "$tmp/mono.sam" "$tmp/cluster.sam"; then
    echo "cluster-smoke: FAIL — router SAM differs from monolithic darwind:" >&2
    diff "$tmp/mono.sam" "$tmp/cluster.sam" | head -20 >&2
    exit 1
fi
echo "cluster-smoke: router SAM is byte-identical to the monolith"

# The router's exposition goes through the same OpenMetrics writer as
# darwind; lint it and assert the cluster/* namespace is present.
curl -fsS "http://$router_addr/metrics" > "$tmp/router_metrics.txt"
"$tmp/bin/metricslint" < "$tmp/router_metrics.txt"
if ! grep -q '^darwin_cluster_requests_total ' "$tmp/router_metrics.txt"; then
    echo "cluster-smoke: FAIL — router /metrics missing darwin_cluster_* families" >&2
    exit 1
fi
echo "cluster-smoke: router /metrics exposition is lint-clean with cluster/* families"

# The router answers through darwind's serving front, so it has the SLO
# windows and the slow-request ring too — and its captured span trees
# say which worker answered each shard.
curl -fsS "http://$router_addr/v1/stats" > "$tmp/router_stats.json"
if ! grep -Eq '"requests": [1-9]' "$tmp/router_stats.json"; then
    echo "cluster-smoke: FAIL — router /v1/stats windows saw no requests:" >&2
    cat "$tmp/router_stats.json" >&2
    exit 1
fi
curl -fsS "http://$router_addr/debug/slow" > "$tmp/router_slow.json"
if ! grep -q '"cluster.scatter"' "$tmp/router_slow.json" || ! grep -Eq '"worker": "w[01]"' "$tmp/router_slow.json"; then
    echo "cluster-smoke: FAIL — router /debug/slow has no cluster.scatter span naming its worker:" >&2
    head -c 2000 "$tmp/router_slow.json" >&2
    exit 1
fi
echo "cluster-smoke: router serves /v1/stats and /debug/slow (scatter spans name their worker)"

# Shard 0's primary is deterministic (rendezvous over names); read it
# from the router's topology view so the right worker gets degraded.
primary=$(curl -fsS "http://$router_addr/v1/cluster" | tr -d ' \n' \
    | sed -n 's/.*"replicas":\[\[\"\([^"]*\)".*/\1/p')
case "$primary" in
    w0) victim_pid=$w0_pid ;;
    w1) victim_pid=$w1_pid ;;
    *) echo "cluster-smoke: FAIL — cannot resolve shard 0 primary from /v1/cluster (got '$primary')" >&2
       exit 1 ;;
esac

echo "cluster-smoke: SIGSTOP $primary (shard 0 primary) — hedge must carry the batch"
kill -STOP "$victim_pid"
"$tmp/bin/darwin-client" -target "$router_addr" -reads "$tmp/reads.fq" \
    -requests 8 -concurrency 1 -batch 4 -out "$tmp/hedged.sam" >/dev/null
if ! cmp -s "$tmp/mono.sam" "$tmp/hedged.sam"; then
    echo "cluster-smoke: FAIL — SAM diverged with a stalled replica:" >&2
    diff "$tmp/mono.sam" "$tmp/hedged.sam" | head -20 >&2
    exit 1
fi
hedged=$(curl -fsS "http://$router_addr/metrics" \
    | awk '/^darwin_cluster_hedge_fired_total /{print int($2)}')
if [ -z "$hedged" ] || [ "$hedged" -lt 1 ]; then
    echo "cluster-smoke: FAIL — batch completed but hedge_fired=$hedged (expected > 0)" >&2
    exit 1
fi
# A hedge that carries a batch is the router working, not failing:
# nothing up to here may have logged at ERROR.
if grep -q 'level=ERROR' "$tmp/router.log"; then
    echo "cluster-smoke: FAIL — router logged at ERROR while hedging past a stalled replica:" >&2
    grep 'level=ERROR' "$tmp/router.log" >&2
    exit 1
fi
echo "cluster-smoke: batch completed via hedged replica (hedge_fired=$hedged), SAM still byte-identical"

echo "cluster-smoke: SIGKILL $primary — failover must carry the batch"
kill -CONT "$victim_pid" 2>/dev/null || true
kill -9 "$victim_pid"
"$tmp/bin/darwin-client" -target "$router_addr" -reads "$tmp/reads.fq" \
    -requests 8 -concurrency 1 -batch 4 -out "$tmp/failover.sam" >/dev/null
if ! cmp -s "$tmp/mono.sam" "$tmp/failover.sam"; then
    echo "cluster-smoke: FAIL — SAM diverged after losing a replica:" >&2
    diff "$tmp/mono.sam" "$tmp/failover.sam" | head -20 >&2
    exit 1
fi
failovers=$(curl -fsS "http://$router_addr/metrics" \
    | awk '/^darwin_cluster_replica_failovers_total /{print int($2)}')
echo "cluster-smoke: batch completed via surviving replica (failovers=$failovers), SAM still byte-identical"

kill -TERM "$router_pid"
if ! wait "$router_pid"; then
    echo "cluster-smoke: FAIL — router exited non-zero on SIGTERM:" >&2
    cat "$tmp/router.log" >&2
    exit 1
fi
if ! grep -q "drain complete" "$tmp/router.log"; then
    echo "cluster-smoke: FAIL — no clean-drain log line:" >&2
    cat "$tmp/router.log" >&2
    exit 1
fi
echo "cluster-smoke: OK (bit-identical scatter-gather, hedged + failover degradation, clean drain)"
