package main

import (
	"context"
	"fmt"
	"reflect"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/metrics"
	"darwin/internal/readsim"
	"darwin/internal/shard"
)

// subSeed derives the seed of one input stream from the run's seed.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// scaled shrinks an input size by the run's scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// mapParams are the fixed choices of one batch-mapping workload.
type mapParams struct {
	genome  func(length int, seed int64) genome.Config
	length  int // genome length at scale 1
	cfg     core.Config
	shards  int // 0: monolithic core.Open
	profile readsim.Profile
	readLen int
	// perSecond is the number of reads the reference machine maps in a
	// second; with the run's length it fixes how many reads a run maps.
	perSecond float64
	// foreignOf5 is how many of every 5 reads are drawn from an
	// unrelated genome and must come back unmapped.
	foreignOf5 int
	traced     int // reads the traced run measures the layers on
}

func newMapPacbio() bench {
	return &mapBench{p: mapParams{
		genome: func(length int, seed int64) genome.Config {
			return genome.Config{Length: length, GC: 0.45, Seed: seed}
		},
		length:    4_000_000,
		cfg:       core.DefaultConfig(12, 750, 24),
		profile:   readsim.PacBio,
		readLen:   10_000,
		perSecond: 160,
		traced:    200,
	}}
}

func newMapOntSharded() bench {
	return &mapBench{p: mapParams{
		genome: func(length int, seed int64) genome.Config {
			c := genome.DefaultConfig(length)
			c.Seed = seed
			return c
		},
		length:     5_000_000,
		cfg:        core.DefaultConfig(11, 1500, 22),
		shards:     4,
		profile:    readsim.ONT1D,
		readLen:    5_000,
		perSecond:  42,
		foreignOf5: 1,
		traced:     50,
	}}
}

// mapBench is a batch-mapping workload: one caller hands the reads to
// Mapper.Map with W workers, a fifth of them per call, so that a call
// is a segment and the workers idle only at the end of five long calls.
type mapBench struct {
	p       mapParams
	ref     dna.Seq
	reads   []readsim.Read // a foreign read's truth fields are meaningless
	foreign []bool
	seqs    []dna.Seq
	mapper  core.Mapper

	// Timed-phase outputs: each call's results, and the calls that
	// failed.
	results  [][]core.MapResult
	failures []string
}

func (b *mapBench) generate(o options) error {
	g, err := genome.Generate(b.p.genome(scaled(b.p.length, o.scale, 200_000), subSeed(o.seed, 1)))
	if err != nil {
		return err
	}
	b.ref = g.Seq
	n := opCount(o, b.p.perSecond)
	nForeign := n * b.p.foreignOf5 / 5
	own, err := readsim.SimulateN(b.ref, n-nForeign, readsim.Config{Profile: b.p.profile, MeanLen: b.p.readLen, Seed: subSeed(o.seed, 2)})
	if err != nil {
		return err
	}
	var other []readsim.Read
	if nForeign > 0 {
		fg, err := genome.Generate(b.p.genome(scaled(1_000_000, o.scale, 100_000), subSeed(o.seed, 3)))
		if err != nil {
			return err
		}
		other, err = readsim.SimulateN(fg.Seq, nForeign, readsim.Config{Profile: b.p.profile, MeanLen: b.p.readLen, Seed: subSeed(o.seed, 4)})
		if err != nil {
			return err
		}
	}
	// Foreign reads are spread evenly so every call has the same mix.
	for i := 0; i < n; i++ {
		if i%5 < b.p.foreignOf5 && len(other) > 0 {
			r := other[0]
			other = other[1:]
			r.Name = "foreign_" + r.Name
			b.reads = append(b.reads, r)
			b.foreign = append(b.foreign, true)
		} else {
			b.reads = append(b.reads, own[0])
			own = own[1:]
			b.foreign = append(b.foreign, false)
		}
		b.seqs = append(b.seqs, b.reads[i].Seq)
	}
	return nil
}

func (b *mapBench) setup() error {
	if b.p.shards == 0 {
		m, _, err := core.Open(core.OpenConfig{Records: []dna.Record{{Name: "chr1", Seq: b.ref}}, Core: b.p.cfg})
		b.mapper = m
		return err
	}
	m, err := shard.New(b.ref, b.p.cfg, shard.Config{Shards: b.p.shards})
	if err != nil {
		return err
	}
	// Unbounded residency, warmed: no shard is built inside the timed
	// phase.
	for i := range m.Set().Geometry().Parts {
		if _, err := m.Set().Acquire(i); err != nil {
			return err
		}
	}
	b.mapper = m
	return nil
}

func (b *mapBench) close() {}

func (b *mapBench) timed() []opSample {
	per := len(b.seqs) / segments // generate made the read count a multiple
	b.results = make([][]core.MapResult, segments)
	ctx := context.Background()
	return closedLoop(1, segments, func(n int) int {
		res, err := b.mapper.Map(ctx, b.seqs[n*per:(n+1)*per], core.WithWorkers(workers))
		if err != nil {
			b.failures = append(b.failures, fmt.Sprintf("Map call %d: %v", n, err))
		} else {
			b.results[n] = res
		}
		return per
	})
}

func (b *mapBench) verify(out *outcome) (metrics.Confusion, error) {
	out.attempted = len(b.seqs)
	for _, f := range b.failures {
		out.problemf("%s", f)
	}
	per := len(b.seqs) / segments
	var conf metrics.Confusion
	for n, res := range b.results {
		if res != nil { // a failed call is already counted
			conf.Add(b.checkResults(out, res, n*per))
		}
	}
	return conf, nil
}

// sameAlignments compares two Map results of the same reads.
func sameAlignments(a, b []core.MapResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || !reflect.DeepEqual(nilIfEmpty(a[i].Alignments), nilIfEmpty(b[i].Alignments)) {
			return false
		}
	}
	return true
}

// checkResults verifies the results for reads [base, base+len)
// — no per-read error, every alignment structurally valid against the
// sequences it claims to align — and scores the best alignments
// against the simulator's ground truth.
func (b *mapBench) checkResults(out *outcome, res []core.MapResult, base int) metrics.Confusion {
	ref := b.mapper.Ref()
	got := make([]placement, len(res))
	for i, r := range res {
		read := &b.reads[base+i]
		if r.Err != nil {
			out.problemf("read %s: %v", read.Name, r.Err)
			continue
		}
		var rc dna.Seq
		for k := range r.Alignments {
			a := &r.Alignments[k]
			q := read.Seq
			if a.Reverse {
				if rc == nil {
					rc = dna.RevComp(read.Seq)
				}
				q = rc
			}
			if err := a.Result.Check(ref, q); err != nil {
				out.problemf("read %s alignment %d: %v", read.Name, k, err)
			}
		}
		if best := core.Best(r.Alignments); best != nil {
			got[i] = placement{mapped: true, start: best.Result.RefStart, end: best.Result.RefEnd, reverse: best.Reverse}
		}
	}
	return scorePlacements(b.reads[base:base+len(res)], b.foreign[base:base+len(res)], got)
}

// placement is where a read's best alignment landed on the forward
// reference.
type placement struct {
	mapped     bool
	start, end int
	reverse    bool
}

// isForeign reports whether read i was drawn from the unrelated
// genome; a nil slice means the workload has no foreign reads.
func isForeign(foreign []bool, i int) bool { return foreign != nil && foreign[i] }

// scorePlacements applies the paper's Eq. 4-5 to read mapping: a read
// is a true positive when its best alignment is on the right strand
// and lies within 50 bp of the region the simulator drew it from;
// mapped anywhere else it is both a false positive and a miss. A
// foreign read has no true placement, so mapping it is a false
// positive.
func scorePlacements(reads []readsim.Read, foreign []bool, got []placement) metrics.Confusion {
	var c metrics.Confusion
	for i := range reads {
		p := got[i]
		if isForeign(foreign, i) {
			if p.mapped {
				c.FP++
			}
			continue
		}
		r := &reads[i]
		switch {
		case !p.mapped:
			c.FN++
		case p.reverse == r.Reverse && p.start >= r.RefStart-50 && p.end <= r.RefEnd+50:
			c.TP++
		default:
			c.FP++
			c.FN++
		}
	}
	return c
}

func (b *mapBench) layers(o options, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	n := min(scaled(b.p.traced, o.scale, 5), len(b.seqs))
	in := mapProbe{ref: b.mapper.Ref(), cfg: b.p.cfg, mapper: b.mapper, seqs: b.seqs[:n], pool: b.reads, foreign: b.foreign}
	res, err := probeMapping(in, tr, out)
	if err != nil {
		return nil, err
	}
	b.checkResults(out, res, 0)
	return out, nil
}
