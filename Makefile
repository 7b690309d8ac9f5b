# Developer workflow targets. `make check` is the gate perf and
# refactor PRs must keep green (vet, the full test suite under the race
# detector, allocation pins, the scalar score-pass fallback, fuzz
# targets, the smoke scripts);
# `make bench` runs the paper table/figure and kernel micro-benchmarks.
# End-to-end performance is `go run ./bench` (bench/README.md);
# `scripts/bench_pair.sh <parent-ref>` runs it parent against change.

GO ?= go

.PHONY: build test check race vet loc test-allocs fallback fuzz bench serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
	$(GO) test -run 'SteadyStateAllocs' ./internal/align/ ./internal/gact/

# The scalar passes the vector ones fall back to: run under the purego
# tag (TestQuickMaxCell, FuzzFill's and FuzzEngineExtend's corpora and
# the rest of both packages on linearPair and linearRow), and vetted for
# arm64, which has no assembly and cannot be run here.
fallback:
	$(GO) test -tags purego ./internal/align/ ./internal/gact/
	GOARCH=arm64 $(GO) vet ./internal/align/ ./internal/gact/

# Bounded runs of the fuzz targets, on top of their committed seed
# corpora (testdata/fuzz, which plain `go test` replays): Myers infix vs
# its quadratic oracle, the score pass as production runs it (the AVX2
# lanes on amd64) vs the scalar pass and fillLocal, the pointer fill as
# production runs it (the AVX2 lanes again) vs the scalar rows and the
# reference AlignTile, ParseCigar on worker-supplied CIGAR text (no
# panic, and whatever it accepts prints back unchanged),
# gact.Engine.Extend — score pass, banded refills,
# bitvector tier — vs the free reference Extend, the .dwi reader on
# re-sealed mutated index files (no panic, only coded errors, and
# Lookup answers on every table it accepts), and the DWCP checkpoint
# reader on re-sealed mutated checkpoints (coded errors, or a
# checkpoint that writes back byte-identically).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMyersInfix$$' -fuzztime 20s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzMaxCell$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzFill$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCigar$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/align/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineExtend$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/gact/
	$(GO) test -run '^$$' -fuzz '^FuzzIndexOpen$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/indexfile/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/jobs/

check: vet race test-allocs fallback fuzz serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint

# End-to-end serving check: darwind on a synthetic genome, load from
# darwin-client, non-empty SAM back, clean drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Resilience check: darwind under injected flush errors, per-read
# panics, and stream hiccups must return only well-formed responses,
# open the per-source circuit breaker within its threshold, refuse
# -faults without DARWIN_ALLOW_FAULTS=1, and drain with goroutines
# back at the pre-serve baseline.
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
