#!/usr/bin/env bash
# chaos-smoke: fault-injection check of the darwind resilience layer.
#   1. build darwind, darwin-client, genomesim, readsim
#   2. assert -faults is refused without DARWIN_ALLOW_FAULTS=1
#   3. start darwind with injected flush errors, per-read panics, and
#      stream hiccups, plus -leak-check
#   4. drive load through darwin-client (retries on) and assert every
#      response was well-formed: NDJSON lines or structured errors,
#      never a malformed body
#   5. SIGTERM darwind, assert clean drain AND goroutines back to the
#      pre-serve baseline (-leak-check)
#   6. index/load fault: a poisoned sidecar degrades to a FASTA rebuild
#   7. cluster/scatter fault: a darwin-router whose scatter attempts
#      fail must return structured errors, open per-worker breakers
#      within -breaker-threshold, and recover through half-open probes
#      once the fault budget is exhausted
#   8. jobs/checkpoint fault: an assembly job whose checkpoint writes
#      fail must still complete (checkpointing is best-effort), with
#      the failures counted in darwin_jobs_checkpoint_errors_total
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "chaos-smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/darwin-client ./cmd/genomesim ./cmd/readsim ./cmd/darwin-index ./cmd/darwin-router

echo "chaos-smoke: generating synthetic genome and reads"
"$tmp/bin/genomesim" -len 150000 -seed 7 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 48 -len 1200 -seed 9 -out "$tmp/reads.fq" 2>/dev/null

# Injection must be an explicit opt-in: without DARWIN_ALLOW_FAULTS=1
# a -faults spec is refused at startup, before anything is armed.
if env -u DARWIN_ALLOW_FAULTS "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -faults 'server/admit=error' 2> "$tmp/gate.log"; then
    echo "chaos-smoke: FAIL — darwind accepted -faults without DARWIN_ALLOW_FAULTS=1" >&2
    exit 1
fi
if ! grep -q "refusing to arm" "$tmp/gate.log"; then
    echo "chaos-smoke: FAIL — no refusal message for ungated -faults:" >&2
    cat "$tmp/gate.log" >&2
    exit 1
fi
echo "chaos-smoke: ungated -faults correctly refused"

spec='server/flush=p=0.15,error=chaos flush;core/map_read=every=9,panic=poisoned read;server/stream=p=0.02,error=stream hiccup;seed=11'
DARWIN_ALLOW_FAULTS=1 "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -k 11 -n 400 -h 20 \
    -leak-check -faults "$spec" 2> "$tmp/darwind.log" &
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
        echo "chaos-smoke: FAIL — darwind exited early:" >&2
        cat "$tmp/darwind.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "chaos-smoke: FAIL — darwind never became ready:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
if ! grep -q "fault injection active" "$tmp/darwind.log"; then
    echo "chaos-smoke: FAIL — no fault-injection startup line:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
echo "chaos-smoke: darwind ready on $addr with faults armed"

# Load under chaos. The client validates every NDJSON line; a body the
# server half-wrote would show up as "malformed lines" in the summary.
"$tmp/bin/darwin-client" -target "$addr" -reads "$tmp/reads.fq" \
    -requests 30 -concurrency 4 -batch 4 -retries 4 > "$tmp/client.out"
cat "$tmp/client.out"
if grep -q "malformed lines" "$tmp/client.out"; then
    echo "chaos-smoke: FAIL — client saw malformed response lines under faults" >&2
    exit 1
fi
ok=$(awk '/^requests:/{print $2}' "$tmp/client.out")
if [ -z "$ok" ] || [ "$ok" -lt 1 ]; then
    echo "chaos-smoke: FAIL — no successful requests under chaos (ok=$ok)" >&2
    exit 1
fi
echo "chaos-smoke: $ok requests succeeded under injected faults, all responses well-formed"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "chaos-smoke: FAIL — darwind exited non-zero on SIGTERM (drain or leak check failed):" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
pid=""
if ! grep -q "drain complete" "$tmp/darwind.log"; then
    echo "chaos-smoke: FAIL — no clean-drain log line:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
if ! grep -q "leak check passed" "$tmp/darwind.log"; then
    echo "chaos-smoke: FAIL — no leak-check pass line:" >&2
    cat "$tmp/darwind.log" >&2
    exit 1
fi
echo "chaos-smoke: OK (clean drain, goroutines back to baseline)"

# ---------------------------------------------------------------------------
# Index-load fault: with an index/load error armed, a discovered sidecar
# index fails to map — darwind must log the degradation, rebuild from
# FASTA, and still become ready and serve.
# ---------------------------------------------------------------------------
echo "chaos-smoke: index/load fault with a sidecar present"
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -k 11 -n 400 -h 20 2>/dev/null
[ -f "$tmp/ref.fa.dwi" ] || { echo "chaos-smoke: FAIL — no sidecar written" >&2; exit 1; }

DARWIN_ALLOW_FAULTS=1 "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -k 11 -n 400 -h 20 \
    -faults 'index/load=error=chaos index load;seed=13' 2> "$tmp/darwind3.log" &
pid=$!

addr=""
for _ in $(seq 1 200); do
    addr=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$tmp/darwind3.log" | head -1)
    if [ -n "$addr" ]; then
        if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            break
        fi
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "chaos-smoke: FAIL — darwind with a poisoned index load exited early:" >&2
        cat "$tmp/darwind3.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "chaos-smoke: FAIL — darwind never became ready past the poisoned index load:" >&2
    cat "$tmp/darwind3.log" >&2
    exit 1
fi
if ! grep -q "sidecar index load failed" "$tmp/darwind3.log"; then
    echo "chaos-smoke: FAIL — no sidecar-degradation log line:" >&2
    cat "$tmp/darwind3.log" >&2
    exit 1
fi

"$tmp/bin/darwin-client" -target "$addr" -reads "$tmp/reads.fq" \
    -requests 4 -concurrency 2 -batch 4 -out "$tmp/out3.sam" >/dev/null
if ! grep -qv '^@' "$tmp/out3.sam"; then
    echo "chaos-smoke: FAIL — no SAM records after sidecar fallback" >&2
    exit 1
fi

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "chaos-smoke: FAIL — fallback darwind exited non-zero on SIGTERM:" >&2
    cat "$tmp/darwind3.log" >&2
    exit 1
fi
pid=""
echo "chaos-smoke: OK (poisoned index load degraded to a FASTA rebuild and served)"

# ---------------------------------------------------------------------------
# cluster/scatter fault: every scatter attempt out of the router fails
# (per attempt = per backend) for a bounded budget. The router must
# return structured errors, open per-worker breakers within
# -breaker-threshold failures, and recover through half-open probes
# once the budget is exhausted.
# ---------------------------------------------------------------------------
echo "chaos-smoke: cluster/scatter fault through darwin-router"
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -out "$tmp/cluster.dwi" \
    -k 11 -n 400 -h 20 -shards 2 2>/dev/null

cluster_flags=(-ref "$tmp/ref.fa" -index "$tmp/cluster.dwi" -k 11 -n 400 -h 20 -shards 2)
roster_names='cw0=placeholder:1,cw1=placeholder:2'
"$tmp/bin/darwind" -addr 127.0.0.1:0 "${cluster_flags[@]}" \
    -worker-name cw0 -cluster-workers "$roster_names" -cluster-replication 2 2> "$tmp/cw0.log" &
cw0_pid=$!
"$tmp/bin/darwind" -addr 127.0.0.1:0 "${cluster_flags[@]}" \
    -worker-name cw1 -cluster-workers "$roster_names" -cluster-replication 2 2> "$tmp/cw1.log" &
cw1_pid=$!
cleanup_cluster() {
    for p in "$cw0_pid" "$cw1_pid"; do kill "$p" 2>/dev/null || true; done
}
trap 'cleanup_cluster; cleanup' EXIT

wait_addr() {
    local log=$1 p=$2 a=""
    for _ in $(seq 1 300); do
        a=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$log" | head -1)
        if [ -n "$a" ] && curl -fsS "http://$a/readyz" >/dev/null 2>&1; then
            echo "$a"; return 0
        fi
        kill -0 "$p" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    cat "$log" >&2; return 1
}
cw0_addr=$(wait_addr "$tmp/cw0.log" "$cw0_pid")
cw1_addr=$(wait_addr "$tmp/cw1.log" "$cw1_pid")

# Both workers hold both shards, so a request is one sub-request that
# fails over once: 2 attempts, one per worker. times=6 covers requests
# 1 and 2 (4 attempts, 2 per worker, enough for -breaker-threshold 2)
# plus the first half-open probes, then runs dry so recovery is
# observable.
DARWIN_ALLOW_FAULTS=1 "$tmp/bin/darwin-router" -addr 127.0.0.1:0 \
    -workers "cw0=$cw0_addr,cw1=$cw1_addr" -replication 2 \
    -breaker-threshold 2 -breaker-cooldown 300ms -hedge-delay 5s \
    -faults 'cluster/scatter=every=1,times=6,error=chaos scatter;seed=17' 2> "$tmp/router.log" &
router_pid=$!
trap 'kill "$router_pid" 2>/dev/null || true; cleanup_cluster; cleanup' EXIT
router_addr=$(wait_addr "$tmp/router.log" "$router_pid")

batch='{"reads":[{"name":"r","seq":"ACGTACGTACGTACGTACGTACGTACGT"}]}'
for _ in 1 2; do
    body=$(curl -sS -X POST -d "$batch" "http://$router_addr/v1/map")
    if ! echo "$body" | grep -q '"code"'; then
        echo "chaos-smoke: FAIL — router returned an unstructured error under faults: $body" >&2
        exit 1
    fi
done
opens=$(curl -fsS "http://$router_addr/metrics" \
    | awk '/^darwin_cluster_breaker_opens_total /{print int($2)}')
if [ -z "$opens" ] || [ "$opens" -lt 1 ]; then
    echo "chaos-smoke: FAIL — scatter faults did not open a worker breaker (opens=$opens)" >&2
    exit 1
fi
echo "chaos-smoke: scatter faults returned structured errors and opened $opens worker breaker(s)"

# Recovery: once the fault budget is exhausted and the cooldown has
# passed, half-open probes must close the breakers and serve again.
recovered=""
for _ in $(seq 1 40); do
    if curl -fsS -X POST -d "$batch" "http://$router_addr/v1/map" >/dev/null 2>&1; then
        recovered=1
        break
    fi
    sleep 0.3
done
if [ -z "$recovered" ]; then
    echo "chaos-smoke: FAIL — router never recovered after the fault budget ran dry:" >&2
    cat "$tmp/router.log" >&2
    exit 1
fi
echo "chaos-smoke: OK (router recovered through half-open probes after the fault budget ran dry)"
kill -TERM "$router_pid" 2>/dev/null || true
wait "$router_pid" 2>/dev/null || true
cleanup_cluster

# ---------------------------------------------------------------------------
# jobs/checkpoint fault: every checkpoint write of an assembly job
# fails. Checkpointing is best-effort — the job must still run to
# completion, with each swallowed failure counted in
# darwin_jobs_checkpoint_errors_total.
# ---------------------------------------------------------------------------
echo "chaos-smoke: jobs/checkpoint fault during an assembly job"
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 40 -len 1200 -seed 21 -out "$tmp/jobreads.fq" 2>/dev/null
awk 'NR%4==1{sub(/^@/,">");print} NR%4==2{print}' "$tmp/jobreads.fq" > "$tmp/jobreads.fa"

DARWIN_ALLOW_FAULTS=1 "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
    -k 11 -n 400 -h 20 \
    -jobs-dir "$tmp/chaosjobs" -jobs-checkpoint-every 4 \
    -faults 'jobs/checkpoint=every=1,error=chaos checkpoint;seed=23' 2> "$tmp/darwind4.log" &
pid=$!

addr=$(wait_addr "$tmp/darwind4.log" "$pid")
submit=$(curl -fsS -X POST -H 'Content-Type: text/x-fasta' \
    --data-binary @"$tmp/jobreads.fa" \
    "http://$addr/v1/jobs?kind=assemble&polish=0")
job=$(echo "$submit" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
if [ -z "$job" ]; then
    echo "chaos-smoke: FAIL — job submit under checkpoint faults failed: $submit" >&2
    exit 1
fi

done_st=""
for _ in $(seq 1 600); do
    st=$(curl -fsS "http://$addr/v1/jobs/$job")
    if echo "$st" | grep -q '"state":"done"'; then
        done_st=$st
        break
    fi
    if echo "$st" | grep -Eq '"state":"(failed|canceled)"'; then
        echo "chaos-smoke: FAIL — checkpoint faults killed the job (must be best-effort): $st" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$done_st" ]; then
    echo "chaos-smoke: FAIL — job under checkpoint faults never finished" >&2
    cat "$tmp/darwind4.log" >&2
    exit 1
fi

ckpt_errs=$(curl -fsS "http://$addr/metrics" \
    | awk '/^darwin_jobs_checkpoint_errors_total /{print int($2)}')
if [ -z "$ckpt_errs" ] || [ "$ckpt_errs" -lt 1 ]; then
    echo "chaos-smoke: FAIL — no checkpoint-error samples under jobs/checkpoint faults (errs=$ckpt_errs)" >&2
    exit 1
fi

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "chaos-smoke: FAIL — darwind exited non-zero after checkpoint-fault job:" >&2
    cat "$tmp/darwind4.log" >&2
    exit 1
fi
pid=""
echo "chaos-smoke: OK (job completed despite $ckpt_errs swallowed checkpoint failures)"
