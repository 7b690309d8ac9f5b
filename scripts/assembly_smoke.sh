#!/usr/bin/env bash
# assembly-smoke: end-to-end check of the assembly job API and its
# checkpoint/resume durability.
#   1. build darwind, darwin-client, genomesim, readsim, metricslint
#   2. submit an assemble job, SIGTERM darwind mid-overlap (after at
#      least one checkpoint landed), assert a clean drain that leaves
#      the persisted job non-terminal
#   3. restart darwind over the same -jobs-dir, assert the job is
#      recovered, resumes from its checkpoint (resumed + resume_read
#      visible in status), and completes with a non-trivial N50
#   4. stream the contig FASTA result
#   5. lint /metrics and assert the jobs/* families have samples
#   6. run a second job end-to-end through darwin-client -jobs-target
#      (submit → poll → fetch)
#   7. darwin-overlap and darwin-assemble with -workers 1 against the
#      default (one worker per CPU): overlap TSV and contig FASTA must
#      be byte-identical
# The job service has no worker setting, so legs 2-3 interrupt and
# resume a pass running on the default worker count.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "assembly-smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/darwind ./cmd/darwin-client ./cmd/genomesim ./cmd/readsim ./cmd/metricslint \
    ./cmd/darwin-overlap ./cmd/darwin-assemble

# Sized so that the overlap pass, which runs on every core, still
# outlasts the status poll that waits for its first checkpoint.
echo "assembly-smoke: generating synthetic genome and reads"
"$tmp/bin/genomesim" -len 40000 -seed 51 -out "$tmp/asm_genome.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/asm_genome.fa" -n 240 -len 1500 -seed 52 -out "$tmp/asm_reads.fq" 2>/dev/null
# The job payload goes up as FASTA.
awk 'NR%4==1{sub(/^@/,">");print} NR%4==2{print}' "$tmp/asm_reads.fq" > "$tmp/asm_reads.fa"
# darwind needs a mapping reference too; reuse the genome.
cp "$tmp/asm_genome.fa" "$tmp/ref.fa"

start_darwind() {
    local log=$1
    "$tmp/bin/darwind" -addr 127.0.0.1:0 -ref "$tmp/ref.fa" \
        -k 11 -n 400 -h 20 \
        -jobs-dir "$tmp/jobs" -jobs-checkpoint-every 4 2> "$log" &
    pid=$!
}

wait_ready() {
    local log=$1 a=""
    for _ in $(seq 1 300); do
        a=$(sed -n 's|.*serving on http://\([^/]*\)/.*|\1|p' "$log" | head -1)
        if [ -n "$a" ] && curl -fsS "http://$a/readyz" >/dev/null 2>&1; then
            echo "$a"; return 0
        fi
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    cat "$log" >&2; return 1
}

start_darwind "$tmp/darwind1.log"
addr=$(wait_ready "$tmp/darwind1.log")
echo "assembly-smoke: darwind ready on $addr"

# Submit an assemble job (no polishing: the smoke exercises durability,
# not consensus quality).
submit=$(curl -fsS -X POST -H 'Content-Type: text/x-fasta' \
    --data-binary @"$tmp/asm_reads.fa" \
    "http://$addr/v1/jobs?kind=assemble&polish=0")
job=$(echo "$submit" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
if [ -z "$job" ]; then
    echo "assembly-smoke: FAIL — submit returned no job id: $submit" >&2
    exit 1
fi
echo "assembly-smoke: submitted job $job"

# Wait for a mid-overlap checkpoint, then pull the plug.
interrupted=""
for _ in $(seq 1 400); do
    st=$(curl -fsS "http://$addr/v1/jobs/$job")
    if echo "$st" | grep -Eq '"state":"(done|failed|canceled)"'; then
        echo "assembly-smoke: FAIL — job finished before SIGTERM could interrupt it: $st" >&2
        exit 1
    fi
    if echo "$st" | grep -Eq '"checkpoints":[1-9]'; then
        interrupted=1
        break
    fi
    sleep 0.05
done
if [ -z "$interrupted" ]; then
    echo "assembly-smoke: FAIL — no checkpoint observed while the job ran" >&2
    exit 1
fi

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "assembly-smoke: FAIL — darwind exited non-zero on SIGTERM:" >&2
    cat "$tmp/darwind1.log" >&2
    exit 1
fi
pid=""
if ! grep -q "drain complete" "$tmp/darwind1.log"; then
    echo "assembly-smoke: FAIL — no clean-drain log line:" >&2
    cat "$tmp/darwind1.log" >&2
    exit 1
fi
# The drain must leave the persisted job non-terminal so the next
# process resumes it.
if ! grep -Eq '"state": "(running|pending)"' "$tmp/jobs/$job/job.json"; then
    echo "assembly-smoke: FAIL — drained job persisted a terminal state:" >&2
    cat "$tmp/jobs/$job/job.json" >&2
    exit 1
fi
if [ ! -s "$tmp/jobs/$job/checkpoint.dwc" ]; then
    echo "assembly-smoke: FAIL — no checkpoint file survived the drain" >&2
    exit 1
fi
echo "assembly-smoke: SIGTERM mid-overlap left a resumable job + checkpoint"

# Restart: the job must be recovered and resumed from the checkpoint.
start_darwind "$tmp/darwind2.log"
addr=$(wait_ready "$tmp/darwind2.log")
if ! grep -q "jobs recovered from previous process" "$tmp/darwind2.log"; then
    echo "assembly-smoke: FAIL — restart did not recover the job:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi

final=""
for _ in $(seq 1 1200); do
    st=$(curl -fsS "http://$addr/v1/jobs/$job")
    if echo "$st" | grep -q '"state":"done"'; then
        final=$st
        break
    fi
    if echo "$st" | grep -Eq '"state":"(failed|canceled)"'; then
        echo "assembly-smoke: FAIL — resumed job did not complete: $st" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$final" ]; then
    echo "assembly-smoke: FAIL — resumed job never finished" >&2
    curl -fsS "http://$addr/v1/jobs/$job" >&2 || true
    exit 1
fi
if ! echo "$final" | grep -q '"resumed":true'; then
    echo "assembly-smoke: FAIL — status does not mark the job resumed: $final" >&2
    exit 1
fi
if ! echo "$final" | grep -Eq '"resume_read":[1-9]'; then
    echo "assembly-smoke: FAIL — no resume read boundary in status: $final" >&2
    exit 1
fi
if ! echo "$final" | grep -Eq '"n50":[1-9][0-9]{2}'; then
    echo "assembly-smoke: FAIL — N50 below 100 bp (or missing): $final" >&2
    exit 1
fi
echo "assembly-smoke: job resumed from checkpoint and completed (status: resumed=true)"

curl -fsS "http://$addr/v1/jobs/$job/result" > "$tmp/contigs.fa"
if ! head -1 "$tmp/contigs.fa" | grep -q '^>contig_'; then
    echo "assembly-smoke: FAIL — result is not contig FASTA:" >&2
    head -3 "$tmp/contigs.fa" >&2
    exit 1
fi
echo "assembly-smoke: streamed $(grep -c '^>' "$tmp/contigs.fa") contig(s)"

# Metrics: exposition stays lint-clean and the jobs families exist.
curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt"
"$tmp/bin/metricslint" < "$tmp/metrics.txt"
for want in darwin_jobs_submitted_total darwin_jobs_completed_total \
    darwin_jobs_checkpoints_written_total darwin_jobs_resumed_total; do
    if ! grep -q "^$want" "$tmp/metrics.txt"; then
        echo "assembly-smoke: FAIL — /metrics missing $want" >&2
        exit 1
    fi
done
echo "assembly-smoke: /metrics lint-clean with jobs/* families"

# Client mode: a fresh job end-to-end through darwin-client.
"$tmp/bin/darwin-client" -jobs-target "$addr" -reads "$tmp/asm_reads.fq" \
    -job-polish 0 -job-poll 100ms -job-out "$tmp/client_contigs.fa" 2> "$tmp/client.log"
if ! head -1 "$tmp/client_contigs.fa" | grep -q '^>contig_'; then
    echo "assembly-smoke: FAIL — client job mode produced no contigs:" >&2
    cat "$tmp/client.log" >&2
    exit 1
fi
echo "assembly-smoke: darwin-client -jobs-target submit/poll/fetch OK"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "assembly-smoke: FAIL — darwind exited non-zero on final SIGTERM:" >&2
    cat "$tmp/darwind2.log" >&2
    exit 1
fi
pid=""

# Worker-count invariance at the CLIs: one worker against the default.
engine="-k 11 -n 400 -h 20 -stride 2"
"$tmp/bin/darwin-overlap" -reads "$tmp/asm_reads.fq" $engine -workers 1 -out "$tmp/ov_w1.tsv" 2>/dev/null
"$tmp/bin/darwin-overlap" -reads "$tmp/asm_reads.fq" $engine -out "$tmp/ov_all.tsv" 2>/dev/null
"$tmp/bin/darwin-assemble" -reads "$tmp/asm_reads.fq" $engine -polish 1 -workers 1 -out "$tmp/asm_w1.fa" 2>/dev/null
"$tmp/bin/darwin-assemble" -reads "$tmp/asm_reads.fq" $engine -polish 1 -out "$tmp/asm_all.fa" 2>/dev/null
if [ "$(wc -l < "$tmp/ov_w1.tsv")" -lt 2 ] || ! grep -q '^>contig_' "$tmp/asm_w1.fa"; then
    echo "assembly-smoke: FAIL — the -workers 1 run found no overlaps or built no contigs" >&2
    exit 1
fi
if ! cmp "$tmp/ov_w1.tsv" "$tmp/ov_all.tsv" || ! cmp "$tmp/asm_w1.fa" "$tmp/asm_all.fa"; then
    echo "assembly-smoke: FAIL — -workers 1 and the default worker count disagree" >&2
    exit 1
fi
echo "assembly-smoke: -workers 1 and default give identical overlaps ($(($(wc -l < "$tmp/ov_w1.tsv") - 1))) and contigs"

echo "assembly-smoke: OK (kill-and-resume durability, metrics, client mode, worker invariance)"
