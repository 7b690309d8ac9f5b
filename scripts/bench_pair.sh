#!/usr/bin/env bash
# bench-pair: the parent-vs-change protocol every performance claim in
# EXPERIMENTS.md rests on, as one command.
#
#   scripts/bench_pair.sh <parent-ref> [pairs]
#
# Builds ./bench once from the committed files of <parent-ref> (a
# `git archive` in a temp dir, so nothing is left in .git) and once
# from the working tree, then for every workload of BENCHMARK.json runs
# [pairs] (default 10) alternating pairs — odd pairs parent first, even
# pairs change first, seed i on both sides of pair i, tracing off, the
# run_seconds of BENCHMARK.json — each binary from its own empty
# working directory. It prints the EXPERIMENTS.md table: median [lower
# quartile, upper quartile] per side, the median's change against the
# metric's bound, and in how many pairs the change was better.
#
# Exit status is non-zero when a run is not "correct": true, when
# sensitivity or precision differ between the two sides of a pair, or
# when a change median is worse than the parent's by more than the
# metric's bound. Whether a *gain* holds (better in ≥ 9/10, medians
# further apart than the parent's quartile range) is read off the
# table. About an hour for 10 pairs on the 2-vCPU sandbox.
#
# Not part of `make check`: it is a measurement, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/bench_pair.sh <parent-ref> [pairs]}
pairs=${2:-10}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/run_parent" "$tmp/run_change" "$tmp/out"

git archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./bench)
go build -o "$tmp/bench_change" ./bench

# BENCHMARK.json is pretty-printed one key per line; that is all the
# parsing below relies on.
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=$(awk '/"workloads"/ {on=1} /"end_to_end"/ {on=0} on && /"name"/ {gsub(/[",]/, ""); print $2}' BENCHMARK.json)
# name better bound, one end-to-end metric per line.
awk '/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
     on && /"name"/   {gsub(/[",]/, ""); name=$2}
     on && /"better"/ {gsub(/[",]/, ""); better=$2}
     on && /"bound"/  {gsub(/[",]/, ""); print name, better, $2}' BENCHMARK.json > "$tmp/metrics"

status=0
for wl in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        order="parent change"
        [ $((seed % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            out="$tmp/out/$wl.$seed.$side"
            echo "bench-pair: $wl seed $seed $side" >&2
            (cd "$tmp/run_$side" && "$tmp/bench_$side" -workload "$wl" -seed "$seed" \
                -seconds "$seconds" -trace 0) > "$out" 2>&1 || true
            # The run's last line is one JSON object: the verdict, and the
            # metrics, flattened here to "workload seed side name value".
            last=$(tail -1 "$out")
            if ! grep -q '"correct": *true' <<< "$last"; then
                echo "bench-pair: FAIL — $wl seed $seed $side is not correct:" >&2
                tail -5 "$out" >&2
                status=1
            fi
            while read -r name _; do
                v=$(sed -n 's/.*"'"$name"'": *{"value": *\([^,}]*\).*/\1/p' <<< "$last")
                [ -n "$v" ] && echo "$wl $seed $side $name $v"
            done < "$tmp/metrics" >> "$tmp/records"
        done
    done
done

awk -v pairs="$pairs" '
function quantile(a, n, p,    x, lo) {  # a[1..n] sorted, linear interpolation
    x = 1 + (n - 1) * p; lo = int(x)
    return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo + 1] - a[lo])
}
function summary(wl, name, side,    n, i, j, t, a) {  # sets med, q1, q3
    n = 0
    for (i = 1; i <= pairs; i++) if ((wl, i, side, name) in val) a[++n] = val[wl, i, side, name]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    med = quantile(a, n, 0.5); q1 = quantile(a, n, 0.25); q3 = quantile(a, n, 0.75)
    return n
}
NR == FNR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
{ val[$1, $2, $3, $4] = $5; if (!($1 in seen)) { seen[$1]; wls[++nw] = $1 } }
END {
    print "| workload | metric | parent | change | median change | change better in |"
    print "|---|---|---|---|---|---|"
    for (w = 1; w <= nw; w++) for (m = 1; m <= nm; m++) {
        wl = wls[w]; name = order[m]
        if (name == "sensitivity" || name == "precision") {
            eq = 0; n = 0
            for (i = 1; i <= pairs; i++) if ((wl, i, "parent", name) in val) {
                n++
                if (val[wl, i, "parent", name] "" == val[wl, i, "change", name] "") eq++  # as strings
                else { printf "bench-pair: FAIL — %s %s differs at seed %d: %s vs %s\n", wl, name, i, val[wl, i, "parent", name], val[wl, i, "change", name] > "/dev/stderr"; bad = 1 }
            }
            if (n) printf "| `%s` | `%s` | bit-equal to the parent on %d/%d seeds | | | |\n", wl, name, eq, n
            continue
        }
        if (!summary(wl, name, "parent")) continue
        pm = med; pq1 = q1; pq3 = q3
        summary(wl, name, "change")
        wins = 0
        for (i = 1; i <= pairs; i++) {
            p = val[wl, i, "parent", name]; c = val[wl, i, "change", name]
            if (better[name] == "higher" ? c > p : c < p) wins++
        }
        change = pm ? (med - pm) / pm : 0
        worse = better[name] == "higher" ? -change : change
        note = ""
        if (worse > bound[name]) {
            note = " **worse than the bound**"; bad = 1
            printf "bench-pair: FAIL — %s %s is %.1f%% worse than the parent (bound %g%%)\n", wl, name, 100 * worse, 100 * bound[name] > "/dev/stderr"
        } else if (pm && (pq3 - pq1) / pm > bound[name]) note = " unresolved: parent quartile range exceeds the bound"
        printf "| `%s` | `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% (bound %g%%)%s | %d/%d |\n",
            wl, name, pm, pq1, pq3, med, q1, q3, 100 * change, 100 * bound[name], note, wins, pairs
    }
    exit bad
}' "$tmp/metrics" "$tmp/records" || status=1

exit $status
