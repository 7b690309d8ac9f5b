#!/usr/bin/env bash
# cluster-scaling: the EXPERIMENTS.md "Distributed scatter-gather"
# numbers. Two measurements:
#
#   A. Scaling curve — reads/s through darwin-router over 1/2/4
#      darwind workers, against a monolithic darwind, at a FIXED
#      per-node shard residency budget (-shard-mem) smaller than the
#      full seed table. Workers use replication 1 so aggregate
#      resident index grows with node count: the monolith (and the
#      1-worker cluster) must rebuild evicted shards every batch,
#      2+ workers hold their owned shards resident. An unbounded
#      monolith row is printed too, so the overhead of the scatter
#      hop is visible separately from the memory story.
#
#   B. Hedge tail latency — p50/p99 through a 2-worker replication-2
#      cluster, healthy vs one replica SIGSTOPped, at two -hedge-delay
#      settings. Breakers are disabled (-breaker-threshold huge) so
#      every batch actually pays the hedge path rather than learning
#      to skip the stalled worker.
#
# Not part of `make check` (it is a measurement, not a gate); run
# manually and paste the table into EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do
        [ -n "$p" ] && { kill -CONT "$p" 2>/dev/null || true; kill -9 "$p" 2>/dev/null || true; }
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

wait_ready() {
    local log=$1 pid=$2 addr=""
    for _ in $(seq 1 600); do
        addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$log" | head -1)
        if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            echo "$addr"
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "cluster-scaling: FAIL — process exited early:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "cluster-scaling: FAIL — never became ready:" >&2
    cat "$log" >&2
    return 1
}

# run_client TARGET OUTFILE — one warm pass, then the measured pass.
run_client() {
    local target=$1 out=$2
    "$tmp/bin/darwin-client" -target "$target" -reads "$tmp/reads.fq" \
        -requests 2 -concurrency 1 -batch 4 >/dev/null
    "$tmp/bin/darwin-client" -target "$target" -reads "$tmp/reads.fq" \
        -requests 8 -concurrency 1 -batch 4 > "$out"
}

reads_per_s() { awk -F'[ ,]+' '/^throughput:/{print $4}' "$1"; }
# subreqs_per_request ADDR — a router's first-attempt scatter
# sub-requests per /v1/map request it took (client retries included):
# one per replica-set group, with hedges and failovers left out.
subreqs_per_request() {
    curl -fsS "http://$1/metrics" | awk '
        /^darwin_cluster_scatter_subreqs_total / {s = $2}
        /^darwin_cluster_hedge_fired_total / {h = $2}
        /^darwin_cluster_replica_failovers_total / {f = $2}
        /^darwin_cluster_requests_total / {r = $2}
        END {printf "%.1f", r ? (s - h - f) / r : 0}'
}
lat_p50()    { sed -n 's/^latency: p50=\([^ ]*\).*/\1/p' "$1"; }
lat_p99()    { sed -n 's/.* p99=\([^ ]*\).*/\1/p' "$1"; }

echo "cluster-scaling: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/darwin-router ./cmd/darwin-client \
    ./cmd/genomesim ./cmd/readsim

echo "cluster-scaling: generating 4 Mbp genome + 32 x 3 kbp reads"
"$tmp/bin/genomesim" -len 4000000 -seed 31 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 32 -len 3000 -seed 32 -out "$tmp/reads.fq" 2>/dev/null

# FASTA-built engines (no .dwi): an evicted shard costs a real
# BuildRange rebuild, which is exactly what a resident budget buys off.
engine_flags=(-k 13 -n 600 -h 24 -shards 8 -no-sidecar)

# --- A1: unbounded monolith (also sizes the budget) -----------------
echo "cluster-scaling: monolith, unbounded"
"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    "${engine_flags[@]}" 2> "$tmp/mono_unbounded.log" &
pid=$!; pids+=("$pid")
addr=$(wait_ready "$tmp/mono_unbounded.log" "$pid")
run_client "$addr" "$tmp/mono_unbounded.out"
peak=$(curl -fsS "http://$addr/metrics" \
    | awk '/^darwin_shard_resident_bytes_peak /{print int($2)}')
kill -TERM "$pid"; wait "$pid" 2>/dev/null || true

# Fixed per-node budget: 5/8 of the full table. The monolith can hold
# 5 of its 8 shard tables; a 2-worker replication-1 node owns 4.
budget=$(( peak * 5 / 8 ))
echo "cluster-scaling: full table peak = $peak bytes, per-node budget = $budget bytes"

# --- A2: budgeted monolith ------------------------------------------
echo "cluster-scaling: monolith, budget $budget"
"$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    "${engine_flags[@]}" -shard-mem "$budget" 2> "$tmp/mono_budget.log" &
pid=$!; pids+=("$pid")
addr=$(wait_ready "$tmp/mono_budget.log" "$pid")
run_client "$addr" "$tmp/mono_budget.out"
kill -TERM "$pid"; wait "$pid" 2>/dev/null || true

# --- A3: router over 1 / 2 / 4 workers at the same per-node budget --
# Worker names hash to ownership via rendezvous; with the node0..3
# roster over 8 shards the splits are 8 / 4+4 / 1+2+3+2.
for n in 1 2 4; do
    echo "cluster-scaling: $n worker(s), per-node budget $budget"
    roster=""
    for i in $(seq 0 $((n - 1))); do
        roster="${roster:+$roster,}node$i=placeholder:$i"
    done
    worker_addrs=""
    wpids=()
    for i in $(seq 0 $((n - 1))); do
        "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
            "${engine_flags[@]}" -shard-mem "$budget" \
            -worker-name "node$i" -cluster-workers "$roster" \
            -cluster-replication 1 2> "$tmp/worker_${n}_$i.log" &
        wpid=$!; pids+=("$wpid"); wpids+=("$wpid")
    done
    workers=""
    for i in $(seq 0 $((n - 1))); do
        waddr=$(wait_ready "$tmp/worker_${n}_$i.log" "${wpids[$i]}")
        workers="${workers:+$workers,}node$i=$waddr"
    done
    "$tmp/bin/darwin-router" -addr 127.0.0.1:0 -workers "$workers" \
        -replication 1 2> "$tmp/router_$n.log" &
    rpid=$!; pids+=("$rpid")
    raddr=$(wait_ready "$tmp/router_$n.log" "$rpid")
    run_client "$raddr" "$tmp/cluster_$n.out"
    subreqs_per_request "$raddr" > "$tmp/subreqs_$n"
    kill -TERM "$rpid"; wait "$rpid" 2>/dev/null || true
    for p in "${wpids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
    for p in "${wpids[@]}"; do wait "$p" 2>/dev/null || true; done
done

echo
echo "cluster-scaling: === scaling curve (reads/s, fixed per-node budget) ==="
printf '%-28s %s\n' "monolith (unbounded)" "$(reads_per_s "$tmp/mono_unbounded.out")"
printf '%-28s %s\n' "monolith (budget)"    "$(reads_per_s "$tmp/mono_budget.out")"
for n in 1 2 4; do
    printf '%-28s %s (%s sub-requests/request)\n' "router + $n worker(s)" \
        "$(reads_per_s "$tmp/cluster_$n.out")" "$(cat "$tmp/subreqs_$n")"
done
mono=$(reads_per_s "$tmp/mono_budget.out")
two=$(reads_per_s "$tmp/cluster_2.out")
speedup=$(awk -v a="$two" -v b="$mono" 'BEGIN{printf "%.2f", a/b}')
echo "cluster-scaling: 2-worker speedup over budgeted monolith = ${speedup}x (bar: >= 1.6x)"
if awk -v s="$speedup" 'BEGIN{exit !(s >= 1.6)}'; then :; else
    echo "cluster-scaling: FAIL — 2-worker speedup below 1.6x" >&2
    exit 1
fi

# --- B: hedge tail latency ------------------------------------------
# Small genome: map time should be negligible next to the hedge delay.
echo
echo "cluster-scaling: hedge tail latency (2 workers, replication 2)"
"$tmp/bin/genomesim" -len 150000 -seed 41 -out "$tmp/href.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/href.fa" -n 32 -len 1200 -seed 42 -out "$tmp/hreads.fq" 2>/dev/null
hflags=(-k 11 -n 400 -h 20 -shards 2 -no-sidecar)
hroster='node0=placeholder:0,node1=placeholder:1'
hpids=()
for i in 0 1; do
    "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/href.fa" \
        "${hflags[@]}" -worker-name "node$i" -cluster-workers "$hroster" \
        -cluster-replication 2 2> "$tmp/hworker_$i.log" &
    hp=$!; pids+=("$hp"); hpids+=("$hp")
done
h0=$(wait_ready "$tmp/hworker_0.log" "${hpids[0]}")
h1=$(wait_ready "$tmp/hworker_1.log" "${hpids[1]}")
hworkers="node0=$h0,node1=$h1"

# Both routers boot (and probe the workers) while everything is
# healthy; the stalled runs then go through already-live routers — a
# fresh router could not probe past a SIGSTOPped worker.
"$tmp/bin/darwin-router" -addr 127.0.0.1:0 -workers "$hworkers" \
    -replication 2 -hedge-delay 250ms \
    -breaker-threshold 1000000 2> "$tmp/hrouter_250.log" &
r250=$!; pids+=("$r250")
"$tmp/bin/darwin-router" -addr 127.0.0.1:0 -workers "$hworkers" \
    -replication 2 -hedge-delay 50ms \
    -breaker-threshold 1000000 2> "$tmp/hrouter_50.log" &
r50=$!; pids+=("$r50")
ra250=$(wait_ready "$tmp/hrouter_250.log" "$r250")
ra50=$(wait_ready "$tmp/hrouter_50.log" "$r50")

hedge_run() {
    local ra=$1 out=$2
    "$tmp/bin/darwin-client" -target "$ra" -reads "$tmp/hreads.fq" \
        -requests 16 -concurrency 1 -batch 4 > "$out"
}

hedge_run "$ra250" "$tmp/hedge_healthy.out"
hsub=$(subreqs_per_request "$ra250")

# Stall the worker that ranks first for shard 0 (from the router's
# topology view). A replica set's members take turns being asked
# first, so the sub-requests that ask it first hang until the hedge
# fires: every other request at this roster's one replica set.
primary=$(curl -fsS "http://$ra250/v1/cluster" | tr -d ' \n' \
    | sed -n 's/.*"replicas":\[\[\"\([^"]*\)".*/\1/p')
case "$primary" in
    node0) victim=${hpids[0]} ;;
    node1) victim=${hpids[1]} ;;
    *) echo "cluster-scaling: FAIL — cannot resolve shard 0 primary (got '$primary')" >&2; exit 1 ;;
esac
kill -STOP "$victim"
hedge_run "$ra250" "$tmp/hedge_250.out"
hedge_run "$ra50" "$tmp/hedge_50.out"
kill -CONT "$victim"
kill -TERM "$r250" "$r50"
wait "$r250" 2>/dev/null || true
wait "$r50" 2>/dev/null || true
for p in "${hpids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "${hpids[@]}"; do wait "$p" 2>/dev/null || true; done

echo
echo "cluster-scaling: === hedge tail latency (p50 / p99 per request, $hsub sub-requests/request) ==="
printf '%-36s %-12s %s\n' "healthy, hedge 250ms" \
    "$(lat_p50 "$tmp/hedge_healthy.out")" "$(lat_p99 "$tmp/hedge_healthy.out")"
printf '%-36s %-12s %s\n' "$primary stalled, hedge 250ms" \
    "$(lat_p50 "$tmp/hedge_250.out")" "$(lat_p99 "$tmp/hedge_250.out")"
printf '%-36s %-12s %s\n' "$primary stalled, hedge 50ms" \
    "$(lat_p50 "$tmp/hedge_50.out")" "$(lat_p99 "$tmp/hedge_50.out")"
echo "cluster-scaling: OK"
