#!/usr/bin/env bash
# index-smoke: persistent index format roundtrip through the CLIs.
#   1. build darwin, darwin-index, genomesim, readsim
#   2. darwin-index build + inspect + verify (monolithic and sharded)
#   3. map reads three ways — FASTA build, explicit -index, discovered
#      sidecar — and assert the SAM output is byte-identical
#   4. a format-version-1 sidecar is passed over as bad_version (same
#      SAM from the FASTA build) and refused as an explicit -index
#   5. corrupt the sidecar: verify fails with checksum_mismatch, and
#      darwin falls back to the FASTA build with identical output
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

echo "index-smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/darwin ./cmd/darwin-index ./cmd/genomesim ./cmd/readsim

echo "index-smoke: generating synthetic genome and reads"
"$tmp/bin/genomesim" -len 150000 -seed 7 -out "$tmp/ref.fa" 2>/dev/null
"$tmp/bin/readsim" -ref "$tmp/ref.fa" -n 24 -len 1200 -seed 9 -out "$tmp/reads.fq" 2>/dev/null

args="-reads $tmp/reads.fq -k 11 -n 400 -h 20"

# Baseline: ordinary FASTA build (no sidecar exists yet, but pin it).
"$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -no-sidecar -out "$tmp/base.sam" 2>/dev/null

echo "index-smoke: building and verifying the index"
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -k 11 -n 400 -h 20 2> "$tmp/build.log"
cat "$tmp/build.log"
[ -f "$tmp/ref.fa.dwi" ] || { echo "index-smoke: FAIL — no sidecar written" >&2; exit 1; }
"$tmp/bin/darwin-index" verify "$tmp/ref.fa.dwi"
"$tmp/bin/darwin-index" inspect "$tmp/ref.fa.dwi" > "$tmp/inspect.json"
grep -q '"Version": 2' "$tmp/inspect.json" || {
    echo "index-smoke: FAIL — inspect output missing version:" >&2
    cat "$tmp/inspect.json" >&2
    exit 1
}

echo "index-smoke: mapping from the explicit index"
"$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -index "$tmp/ref.fa.dwi" -out "$tmp/idx.sam" 2> "$tmp/idx.log"
grep -q "mapped prebuilt index" "$tmp/idx.log" || {
    echo "index-smoke: FAIL — -index run did not report the mapped load:" >&2
    cat "$tmp/idx.log" >&2
    exit 1
}
diff "$tmp/base.sam" "$tmp/idx.sam" || {
    echo "index-smoke: FAIL — explicit-index SAM differs from FASTA-build SAM" >&2
    exit 1
}

echo "index-smoke: mapping from the discovered sidecar"
"$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -out "$tmp/side.sam" 2> "$tmp/side.log"
grep -q "mapped prebuilt index" "$tmp/side.log" || {
    echo "index-smoke: FAIL — sidecar next to the FASTA was not auto-loaded:" >&2
    cat "$tmp/side.log" >&2
    exit 1
}
diff "$tmp/base.sam" "$tmp/side.sam" || {
    echo "index-smoke: FAIL — sidecar SAM differs from FASTA-build SAM" >&2
    exit 1
}

echo "index-smoke: sharded index roundtrip"
"$tmp/bin/darwin-index" build -ref "$tmp/ref.fa" -out "$tmp/sharded.dwi" \
    -k 11 -n 400 -h 20 -shards 3 2>/dev/null
"$tmp/bin/darwin-index" verify "$tmp/sharded.dwi"
"$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -shards 3 -index "$tmp/sharded.dwi" \
    -out "$tmp/shard.sam" 2>/dev/null
diff "$tmp/base.sam" "$tmp/shard.sam" || {
    echo "index-smoke: FAIL — sharded-index SAM differs from FASTA-build SAM" >&2
    exit 1
}

echo "index-smoke: an old-format sidecar is passed over, an old -index refused"
mkdir "$tmp/old"
cp "$tmp/ref.fa" "$tmp/ref.fa.dwi" "$tmp/old/"
printf '\x01' | dd of="$tmp/old/ref.fa.dwi" bs=1 seek=8 conv=notrunc 2>/dev/null
"$tmp/bin/darwin" -ref "$tmp/old/ref.fa" $args -out "$tmp/old.sam" 2> "$tmp/old.log"
grep "rebuilding from FASTA" "$tmp/old.log" | grep -q "bad_version" || {
    echo "index-smoke: FAIL — version-1 sidecar not passed over as bad_version:" >&2
    cat "$tmp/old.log" >&2
    exit 1
}
diff "$tmp/base.sam" "$tmp/old.sam" || {
    echo "index-smoke: FAIL — SAM after passing over the old sidecar differs" >&2
    exit 1
}
if "$tmp/bin/darwin" -ref "$tmp/old/ref.fa" $args -index "$tmp/old/ref.fa.dwi" -out /dev/null 2> "$tmp/old_idx.log"; then
    echo "index-smoke: FAIL — version-1 explicit -index did not fail" >&2
    exit 1
fi
grep -q "bad_version" "$tmp/old_idx.log" || {
    echo "index-smoke: FAIL — version-1 explicit -index not reported as bad_version:" >&2
    cat "$tmp/old_idx.log" >&2
    exit 1
}

echo "index-smoke: corruption is detected and degraded gracefully"
size=$(wc -c < "$tmp/ref.fa.dwi")
printf '\xff' | dd of="$tmp/ref.fa.dwi" bs=1 seek=$((size - 1)) conv=notrunc 2>/dev/null
if "$tmp/bin/darwin-index" verify "$tmp/ref.fa.dwi" 2> "$tmp/verify.log"; then
    echo "index-smoke: FAIL — verify passed a corrupted index" >&2
    exit 1
fi
grep -q "checksum_mismatch" "$tmp/verify.log" || {
    echo "index-smoke: FAIL — corruption not reported as checksum_mismatch:" >&2
    cat "$tmp/verify.log" >&2
    exit 1
}
# A corrupt *discovered* sidecar must degrade to the FASTA build, and a
# corrupt *explicit* -index must fail hard.
"$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -out "$tmp/fall.sam" 2> "$tmp/fall.log"
grep -q "rebuilding from FASTA" "$tmp/fall.log" || {
    echo "index-smoke: FAIL — corrupt sidecar did not fall back:" >&2
    cat "$tmp/fall.log" >&2
    exit 1
}
diff "$tmp/base.sam" "$tmp/fall.sam" || {
    echo "index-smoke: FAIL — fallback SAM differs from FASTA-build SAM" >&2
    exit 1
}
if "$tmp/bin/darwin" -ref "$tmp/ref.fa" $args -index "$tmp/ref.fa.dwi" -out /dev/null 2>/dev/null; then
    echo "index-smoke: FAIL — corrupt explicit -index did not fail hard" >&2
    exit 1
fi

echo "index-smoke: OK (bit-identical SAM across build/index/sidecar, old format and corruption detected)"
