# Developer workflow targets. `make check` is the gate perf and
# refactor PRs must keep green (gofmt, vet, the full test suite under the race
# detector, allocation pins, the scalar score-pass fallback, fuzz
# targets, the smoke scripts);
# `make bench` runs the paper table/figure and kernel micro-benchmarks.
# End-to-end performance is `go run ./bench` (bench/README.md);
# `scripts/bench_pair.sh <parent-ref>` runs it parent against change.

GO ?= go

.PHONY: build test check fmt race vet loc test-allocs fallback fuzz bench serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file as gofmt would write it: the check fails listing any
# file `gofmt -l` names.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The number ROADMAP aim 2 ("least code") is judged by: lines of
# non-test Go outside the benchmark harness. Quote it before and after
# in CHANGES.md for any PR that claims to simplify.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs wc -l | tail -1

# The allocation pins are built with //go:build !race (the race
# detector changes allocation behaviour), so check runs them in a
# separate non-race pass.
test-allocs:
	$(GO) test -run 'SteadyStateAllocs' ./internal/align/ ./internal/gact/ ./internal/obs/ ./internal/dsoft/

# The scalar passes the vector ones fall back to: run under the purego
# tag (TestQuickMaxCell, FuzzFill's and FuzzEngineExtend's corpora and
# the rest of both packages on linearPair and linearRow), the pinned
# output digests on the scalar kernels (they must match the vector
# kernels' bytes), and vetted for arm64, which has no assembly and
# cannot be run here.
fallback:
	$(GO) test -tags purego ./internal/align/ ./internal/gact/
	GOFLAGS=-tags=purego $(GO) test -run '^TestOutputDigests$$' .
	GOARCH=arm64 $(GO) vet ./internal/align/ ./internal/gact/

# Bounded runs of the fuzz targets, on top of their committed seed
# corpora (testdata/fuzz, which plain `go test` replays): Myers infix vs
# its quadratic oracle, the score pass at every vector width the CPU has
# (32 and 16 lanes on AVX-512BW) vs the scalar pass and fillLocal,
# thresholded first tiles (the int8 h_tile screen) at every width vs an
# aligner on the scalar passes and fillLocal, the first-tile batch (one
# candidate per byte lane) lane by lane vs the scalar score pass, the
# pointer fill at every width again vs the scalar rows and the
# reference AlignTile, ParseCigar on worker-supplied CIGAR text (no
# panic, and whatever it accepts prints back unchanged),
# gact.Engine.Extend — score pass, banded refills,
# bitvector tier — vs the free reference Extend, D-SOFT's Query on
# rolled seed codes vs Algorithm 1 with a dna.PackSeed per seed, and
# its Trace seed for seed, both seed-table layouts' Lookup and Ranks +
# Hits vs a map-built oracle (fuzzed references with N, lower case and
# IUPAC bytes; no mask, the local mask, a global mask), the .dwi reader on
# re-sealed mutated index files (no panic, only coded errors, and
# Lookup answers on every table it accepts), every mapping path against
# the monolith over fuzzed engine parameters, shard counts and worker
# groupings (the sharded engine, ScatterShards + merge through the wire
# form, a loaded .dwi, a budgeted set, and a file written under other
# parameters: equal alignments and work stats), and the DWCP checkpoint
# reader on re-sealed mutated checkpoints (coded errors, or a
# checkpoint that writes back byte-identically), the FASTA and
# FASTQ readers (no panic, and whatever they accept writes back and
# re-reads to the same records), the mapping-request preamble of
# /v1/map and the cluster scatter endpoint (no panic, a known refusal,
# or a request inside its limits), and the /v1/jobs submit decoder
# (no panic, a coded refusal, or a job jobs.Submit accepts whose
# persisted payload reads back).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMyersInfix$$' -fuzztime 20s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzMaxCell$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzFirstTile$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzFirstTileBatch$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzFill$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCigar$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineExtend$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/gact/
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/dsoft/
	$(GO) test -run '^$$' -fuzz '^FuzzLookup$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/seedtable/
	$(GO) test -run '^$$' -fuzz '^FuzzIndexOpen$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/indexfile/
	$(GO) test -run '^$$' -fuzz '^FuzzMapPaths$$' -fuzztime 60s -fuzzminimizetime 1s ./internal/indexio/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/jobs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFASTA$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/dna/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFASTQ$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/dna/
	$(GO) test -run '^$$' -fuzz '^FuzzEndpointRead$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSubmit$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/server/

check: fmt vet race test-allocs fallback fuzz serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint

# End-to-end serving check: darwind on a synthetic genome, load from
# darwin-client, non-empty SAM back, clean drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Resilience check: darwind under injected flush errors, per-read
# panics, and stream hiccups must return only well-formed responses,
# refuse -faults without DARWIN_ALLOW_FAULTS=1, and drain with
# goroutines back at the pre-serve baseline; a poisoned sidecar load,
# failing router scatter attempts (per-worker breakers open, then
# recover) and failing job checkpoints must each degrade gracefully.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Persistent index roundtrip: darwin-index build/inspect/verify, SAM
# bit-identity across FASTA build / explicit -index / discovered
# sidecar, and corruption detection + graceful fallback.
index-smoke:
	./scripts/index_smoke.sh

# Distributed scatter-gather check: darwin-router over two darwind
# cluster workers booted from one shared .dwi must produce SAM
# byte-identical to the monolithic engine, survive a SIGSTOPped
# replica via hedged requests and a SIGKILLed one via failover, and
# drain cleanly.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Assembly job API durability check: submit an assemble job, SIGTERM
# darwind mid-overlap after a checkpoint lands, restart over the same
# -jobs-dir, and require the job to resume from its checkpoint and
# complete (resumed + resume_read in status, jobs/* metrics lint-clean,
# darwin-client -jobs-target end-to-end).
assembly-smoke:
	./scripts/assembly_smoke.sh

# Observability exposition check: a live darwind's /metrics must be
# valid OpenMetrics with no duplicate or undeclared families, and
# /v1/stats must serve the rolling SLO windows.
metrics-lint:
	./scripts/metrics_lint.sh

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
