package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"darwin/internal/assembly"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/jobs"
	"darwin/internal/metrics"
	"darwin/internal/obs"
	"darwin/internal/olc"
	"darwin/internal/readsim"
)

const (
	asmGenomeLen  = 40_000
	asmReadLen    = 2500
	asmCoverage   = 8
	asmMinOverlap = 1000
	// asmCheckpointEvery is the job service's default cadence
	// (jobs.Config.CheckpointEvery), so an assembly of 128 reads writes
	// its checkpoint 8 times, each time whole.
	asmCheckpointEvery = 16
	// asmPerSecond is how many assemblies the reference machine
	// completes in a second.
	asmPerSecond = 1.0 / 3
	// Floors set just under what every assembly of these inputs reaches
	// (95 assemblies over seeds 1-16 and 21-23: always one contig, N50
	// at most 440 bases short of the genome, identity 0.9930-0.9957, at
	// most 660 bases of the genome not covered), each five to seven
	// standard deviations from its mean, so that no seed trips them but
	// a layout or polishing change that loses half a point of identity
	// or a read's length of contig does. What is lost is lost at the
	// contig's ends, so the allowances are in bases, not shares. The
	// traced run reports the exact values as olc.contig_n50 and
	// olc.contig_identity.
	asmMinIdentity  = 0.99
	asmMaxN50Short  = 1000
	asmMaxUncovered = 1200
)

// asmJob is one read set and what assembling it needs and gives.
type asmJob struct {
	reads       []readsim.Read
	seqs        []dna.Seq
	ovp         *core.Overlapper
	fingerprint uint64
	asm         *olc.Assembly // the timed phase's output
}

// asmBench assembles several read sets of one genome de novo, one
// after the other: overlap (single-threaded, checkpointed through
// jobs.WriteCheckpoint), layout, consensus and one polishing round.
type asmBench struct {
	cfg        core.Config
	genome     dna.Seq
	jobs       []asmJob
	checkpoint string // path jobs.WriteCheckpoint writes to
	failures   []string
}

func newAssembleDenovo() bench {
	return &asmBench{cfg: core.DefaultConfig(11, 600, 20)}
}

func (b *asmBench) generate(o options) error {
	g, err := genome.Generate(genome.Config{Length: scaled(asmGenomeLen, o.scale, 8_000), GC: 0.45, Seed: subSeed(o.seed, 1)})
	if err != nil {
		return err
	}
	b.genome = g.Seq
	// Read starts are stratified — read i starts somewhere in the i-th
	// of n equal steps along the genome — instead of uniform. Coverage
	// is then even on every seed: no seed has a coverage gap that
	// splits the assembly in two (which moves time, memory and
	// accuracy by tens of percent), while orientation, errors and
	// exact positions still vary with the seed.
	n := asmCoverage * len(b.genome) / asmReadLen
	step := (len(b.genome) - asmReadLen) / n
	b.jobs = make([]asmJob, opCount(o, asmPerSecond))
	for j := range b.jobs {
		job := &b.jobs[j]
		for i := 0; i < n; i++ {
			lo := i * step
			one, err := readsim.SimulateN(b.genome[lo:lo+step+asmReadLen], 1, readsim.Config{Profile: readsim.PacBio, MeanLen: asmReadLen, Seed: subSeed(o.seed, int64(100+j*n+i))})
			if err != nil {
				return err
			}
			r := one[0]
			r.Name = fmt.Sprintf("read_%d", i)
			r.RefStart += lo
			r.RefEnd += lo
			job.reads = append(job.reads, r)
			job.seqs = append(job.seqs, r.Seq)
		}
	}
	b.checkpoint = filepath.Join(o.dir, "overlap.ckpt")
	return nil
}

func (b *asmBench) setup() (err error) {
	for j := range b.jobs {
		job := &b.jobs[j]
		job.fingerprint = jobs.ReadsFingerprint(job.seqs)
		if job.ovp, err = core.NewOverlapper(job.seqs, b.cfg); err != nil {
			return err
		}
	}
	return nil
}

func (b *asmBench) close() {}

// checkpointStats counts the checkpoint I/O of one assembly.
type checkpointStats struct {
	writes int
	bytes  int64
}

// assemble runs the pipeline on one read set. With a tracer, stage
// boundaries are read off the public progress callback and each
// checkpoint write gets its own span; without one the callbacks do
// nothing but write.
func (b *asmBench) assemble(tr *tracer, job *asmJob, req int) (*olc.Assembly, checkpointStats, error) {
	var ck checkpointStats
	root := tr.begin("olc", "olc.assemble", -1, req)
	stage := tr.begin("olc", "olc.overlap", root, req)
	save := func(c core.OverlapCheckpoint) error {
		sp := tr.begin("jobs", "jobs.write_checkpoint", stage, req)
		err := jobs.WriteCheckpoint(b.checkpoint, job.fingerprint, c)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		ck.writes++
		if info, err := os.Stat(b.checkpoint); err == nil {
			ck.bytes += info.Size()
		}
		return nil
	}
	options := []olc.Option{
		olc.WithConfig(b.cfg), olc.WithMinOverlap(asmMinOverlap), olc.WithPolishRounds(1),
		olc.WithOverlapper(job.ovp), olc.WithCheckpoint(asmCheckpointEvery, nil, save),
	}
	if tr != nil {
		// A stage's span closes at the last callback that names it and
		// the next opens at the first that names the next, so whatever
		// runs between two stages is left out of both.
		open := "overlap"
		options = append(options, olc.WithProgress(func(name string, done, total int) {
			switch {
			case name == "overlap" && done == total:
				tr.end(stage, "")
				open = ""
			case name == "layout" && done == 0:
				stage, open = tr.begin("olc", "olc.layout", root, req), name
			case name == "layout":
				tr.end(stage, "")
				stage, open = tr.begin("olc", "olc.consensus", root, req), "consensus"
			case name == "consensus" && done == total:
				tr.end(stage, "")
				stage, open = tr.begin("olc", "olc.polish", root, req), "polish"
			}
		}))
		defer func() {
			if open != "" {
				tr.end(stage, "")
			}
			tr.end(root, "")
		}()
	}
	asm, err := olc.Assemble(context.Background(), job.seqs, options...)
	return asm, ck, err
}

func (b *asmBench) timed() []opSample {
	return closedLoop(1, len(b.jobs), func(n int) int {
		job := &b.jobs[n]
		asm, _, err := b.assemble(nil, job, n)
		if err != nil {
			b.failures = append(b.failures, fmt.Sprintf("assembly %d: %v", n, err))
		} else {
			job.asm = asm
		}
		return len(job.seqs)
	})
}

func (b *asmBench) verify(out *outcome) (metrics.Confusion, error) {
	out.attempted = len(b.jobs)
	for _, f := range b.failures {
		out.problemf("%s", f)
	}
	eng, err := core.New(b.genome, b.cfg)
	if err != nil {
		return metrics.Confusion{}, err
	}
	var conf metrics.Confusion
	for n := range b.jobs {
		job := &b.jobs[n]
		if job.asm == nil {
			continue // a failed assembly is already counted
		}
		n50, identity, covered := b.checkContigs(out, eng, job.asm)
		out.notef("assembly %d: %d contigs, N50 %d of a %d-base genome, identity %.4f, %.4f of the genome covered", n, len(job.asm.Contigs), n50, len(b.genome), identity, covered)
		conf.Add(scoreOverlaps(job))
	}
	return conf, nil
}

// scoreOverlaps applies the paper's de novo criterion: a true overlap
// shares at least 1 kbp of template and is detected when 80% of it is
// reported. Assemble detects down to half the nominal minimum so that
// layout sees clipped overlaps; only reports of the nominal length are
// scored, so both sides of the comparison use the 1 kbp cut.
func scoreOverlaps(job *asmJob) metrics.Confusion {
	var reported []assembly.ReportedOverlap
	for _, ov := range assembly.FromCoreOverlaps(job.asm.Overlaps) {
		if ov.Len >= asmMinOverlap {
			reported = append(reported, ov)
		}
	}
	return assembly.EvaluateOverlaps(job.reads, reported, asmMinOverlap, 0.80)
}

// checkContigs maps every polished contig back onto the source genome
// with eng and returns the contig N50, the length-weighted identity
// and the share of the genome the contigs' alignments cover. Empty
// output, or contigs shorter, less like the genome or covering less of
// it than the floors allow, are correctness failures.
func (b *asmBench) checkContigs(out *outcome, eng *core.Darwin, asm *olc.Assembly) (n50 int, identity, covered float64) {
	if len(asm.Contigs) == 0 {
		out.problemf("the assembly has no contigs")
		return 0, 0, 0
	}
	var lens []int
	total, aligned, weighted := 0, 0, 0.0
	for _, c := range asm.Contigs {
		if len(c.Seq) == 0 {
			out.problemf("%s is empty", c.Name)
			continue
		}
		lens = append(lens, len(c.Seq))
		total += len(c.Seq)
		alns, _ := eng.MapRead(c.Seq)
		best := core.Best(alns)
		if best == nil {
			continue
		}
		q := c.Seq
		if best.Reverse {
			q = dna.RevComp(q)
		}
		if err := best.Result.Check(b.genome, q); err != nil {
			out.problemf("%s: %v", c.Name, err)
			continue
		}
		aligned += best.Result.RefEnd - best.Result.RefStart
		weighted += best.Result.Identity(b.genome, q) * float64(len(c.Seq))
	}
	if total == 0 {
		return 0, 0, 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	for sum, i := 0, 0; i < len(lens); i++ {
		if sum += lens[i]; 2*sum >= total {
			n50 = lens[i]
			break
		}
	}
	identity = weighted / float64(total)
	if identity < asmMinIdentity {
		out.problemf("contig identity %.4f is below %.2f", identity, asmMinIdentity)
	}
	if short := len(b.genome) - n50; short > asmMaxN50Short {
		out.problemf("contig N50 %d is %d bases short of the genome, more than %d", n50, short, asmMaxN50Short)
	}
	if uncovered := len(b.genome) - aligned; uncovered > asmMaxUncovered {
		out.problemf("contigs leave %d bases of the genome uncovered, more than %d", uncovered, asmMaxUncovered)
	}
	return n50, identity, float64(aligned) / float64(len(b.genome))
}

func (b *asmBench) layers(o options, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, attempted: 1}
	m := out.metrics

	// One whole assembly, traced: the olc stages and the jobs layer.
	job := &b.jobs[0]
	seqs := job.seqs
	t := time.Now()
	asm, ck, err := b.assemble(tr, job, 0)
	wall := time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}
	busy := tr.busy()
	// A stage's time is its span less the checkpoint writes inside it.
	m["olc.overlap_s"] = busy["olc.overlap"]
	m["olc.layout_s"] = busy["olc.layout"]
	m["olc.consensus_s"] = busy["olc.consensus"]
	m["olc.polish_s"] = busy["olc.polish"]
	m["olc.overlaps_found"] = float64(len(asm.Overlaps))
	m["jobs.checkpoint_busy_s"] = busy["jobs.write_checkpoint"]
	m["jobs.checkpoint_writes"] = float64(ck.writes)
	m["jobs.checkpoint_bytes"] = float64(ck.bytes)
	m["olc.closure_share"] = (m["olc.overlap_s"] + m["olc.layout_s"] + m["olc.consensus_s"] + m["olc.polish_s"] + m["jobs.checkpoint_busy_s"]) / wall
	eng, err := core.New(b.genome, b.cfg)
	if err != nil {
		return nil, err
	}
	n50, identity, _ := b.checkContigs(out, eng, asm)
	m["olc.contig_n50"] = float64(n50)
	m["olc.contig_identity"] = identity

	// The overlap step's use of dsoft and gact, on the last fifth of
	// the reads: Overlapper.Run resumed there, then the same queries
	// replayed call by call against the same concatenated reference.
	n := len(seqs)
	from := n - max(n/segments, 1)
	before := obs.Default.Snapshot()
	sp := tr.begin("core", "core.overlap_run", -1, from)
	_, st, err := job.ovp.Run(context.Background(), core.OverlapRun{
		MinOverlap: asmMinOverlap / 2,
		Resume:     &core.OverlapCheckpoint{NextRead: from},
	})
	runWall := tr.end(sp, "").Seconds()
	if err != nil {
		return nil, err
	}
	fillAlignCounts(out, obs.Default.Snapshot().Sub(before))

	ref, offsets := concatReads(seqs, b.cfg.BinSize)
	table, err := buildTable(tr, out, ref, b.cfg)
	if err != nil {
		return nil, err
	}
	rc, err := replay(tr, ref, table, b.cfg, seqs[from:], from, func(qi int) window {
		self := from + qi
		return func(refPos int) (bool, int, int) {
			target := sort.SearchInts(offsets, refPos+1) - 1
			lo, hi := offsets[target], offsets[target]+len(seqs[target])
			return target == self || refPos >= hi, lo, hi
		}
	})
	if err != nil {
		return nil, err
	}
	if rc.candidates != st.Map.Candidates || rc.extensions-rc.rejects != st.Map.PassedHTile || rc.tiles != st.Map.Tiles || rc.cells != st.Map.Cells {
		out.problemf("the replay did other work than Overlapper.Run: candidates %d/%d, accepted %d/%d, tiles %d/%d, cells %d/%d",
			rc.candidates, st.Map.Candidates, rc.extensions-rc.rejects, st.Map.PassedHTile, rc.tiles, st.Map.Tiles, rc.cells, st.Map.Cells)
	}
	fillReplayMetrics(out, tr, rc)
	m["core.map1_wall_s"] = runWall
	m["core.self_s"] = runWall - m["dsoft.busy_s"] - m["gact.busy_s"]
	m["trace.overhead_share"] = rc.wall.Seconds()/runWall - 1

	// Tile times on read-against-genome tiles: the reads' true loci
	// are known there, not on one another.
	if err := probeTiles(mapProbe{ref: b.genome, cfg: b.cfg, pool: job.reads}, tr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// concatReads lays the reads out as core.NewOverlapper does: each
// followed by N padding up to the next whole number of bins (a full
// bin when already aligned). It returns the reference and each read's
// offset in it.
func concatReads(reads []dna.Seq, binSize int) (dna.Seq, []int) {
	var ref dna.Seq
	offsets := make([]int, len(reads))
	for i, r := range reads {
		offsets[i] = len(ref)
		ref = append(ref, r...)
		for pad := binSize - len(r)%binSize; pad > 0; pad-- {
			ref = append(ref, 'N')
		}
	}
	return ref, offsets
}
