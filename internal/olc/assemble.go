package olc

import (
	"context"
	"fmt"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
)

// One timer per Assemble stage. olc/polish (one per Assemble, not per
// round) re-enters stage/filter and stage/align, so it is not a stage/.
var (
	tAssemble  = obs.Default.Timer("olc/assemble")
	tOverlap   = obs.Default.Timer("olc/overlap")
	tLayout    = obs.Default.Timer("stage/layout")
	tConsensus = obs.Default.Timer("olc/consensus")
	tPolish    = obs.Default.Timer("olc/polish")
)

// Settings is the resolved configuration of an assembly pipeline run.
// Callers use Options; Settings is exported so the server can report
// the configuration a job ran with.
type Settings struct {
	// Config is the Darwin engine configuration used for the overlap
	// and polish stages.
	Config core.Config
	// MinOverlap is the nominal minimum overlap length. Overlap uses it
	// directly as the reporting threshold; Assemble detects at half the
	// nominal value (matching the historical CLI behaviour) so clipped
	// near-threshold overlaps still inform layout.
	MinOverlap int
	// PolishRounds is how many consensus polishing rounds each
	// multi-read contig receives (0 disables polishing).
	PolishRounds int
	// MinContig drops contigs shorter than this from the output.
	MinContig int
	// Progress, when non-nil, receives per-stage progress: stage is one
	// of "overlap", "layout", "consensus", "polish".
	Progress func(stage string, done, total int)
	// CheckpointEvery is the overlap-stage checkpoint cadence in reads
	// (0 disables periodic checkpoints).
	CheckpointEvery int
	// Resume, when non-nil, restarts the overlap stage from a
	// checkpoint instead of read zero.
	Resume *core.OverlapCheckpoint
	// SaveCheckpoint receives overlap-stage checkpoints (periodic, and
	// once at the cancellation boundary). A non-nil return aborts the
	// run; best-effort persistence swallows errors in the callback.
	SaveCheckpoint func(core.OverlapCheckpoint) error
	// Overlapper, when non-nil, is a pre-built overlap engine reused
	// instead of indexing reads again — for multi-pass callers that
	// already paid for the table build.
	Overlapper *core.Overlapper
	// Workers is how many engine workers the overlap and polish stages
	// run on (0 = core.DefaultWorkers). Output does not depend on it.
	Workers int
}

// Option adjusts one assembly pipeline setting, mirroring the
// core.MapOption shape: zero options mean the documented defaults.
type Option func(*Settings)

// DefaultSettings returns the pipeline defaults: the engine tuned as
// the assembly CLIs tune it (k=12, N=1300, h=24, stride 4), a 1 kb
// nominal minimum overlap, two polishing rounds.
func DefaultSettings() Settings {
	cfg := core.DefaultConfig(12, 1300, 24)
	cfg.SeedStride = 4
	return Settings{Config: cfg, MinOverlap: 1000, PolishRounds: 2}
}

// ResolveOptions folds options over DefaultSettings.
func ResolveOptions(options []Option) Settings {
	s := DefaultSettings()
	for _, opt := range options {
		opt(&s)
	}
	return s
}

// WithConfig sets the Darwin engine configuration.
func WithConfig(cfg core.Config) Option {
	return func(s *Settings) { s.Config = cfg }
}

// WithMinOverlap sets the nominal minimum overlap length.
func WithMinOverlap(n int) Option {
	return func(s *Settings) { s.MinOverlap = n }
}

// WithPolishRounds sets the consensus polishing round count.
func WithPolishRounds(n int) Option {
	return func(s *Settings) { s.PolishRounds = n }
}

// WithMinContig drops output contigs shorter than n.
func WithMinContig(n int) Option {
	return func(s *Settings) { s.MinContig = n }
}

// WithProgress installs a per-stage progress callback.
func WithProgress(fn func(stage string, done, total int)) Option {
	return func(s *Settings) { s.Progress = fn }
}

// WithCheckpoint configures overlap-stage checkpointing: save receives
// a snapshot every `every` reads and at the cancellation boundary;
// resume (may be nil) restarts a prior run.
func WithCheckpoint(every int, resume *core.OverlapCheckpoint, save func(core.OverlapCheckpoint) error) Option {
	return func(s *Settings) {
		s.CheckpointEvery = every
		s.Resume = resume
		s.SaveCheckpoint = save
	}
}

// WithOverlapper reuses a pre-built overlap engine; reads passed to
// Overlap/Assemble must be the engine's own read set.
func WithOverlapper(o *core.Overlapper) Option {
	return func(s *Settings) { s.Overlapper = o }
}

// WithWorkers sets the overlap and polish stages' worker count; 0 (the
// default) is one per CPU. Overlaps and contigs are byte-identical for
// every value.
func WithWorkers(n int) Option {
	return func(s *Settings) { s.Workers = n }
}

// Assembly is the result of a full pipeline run.
type Assembly struct {
	// Overlaps is the deduplicated overlap set layout consumed.
	Overlaps []core.Overlap
	// OverlapStats covers the overlap work done by this run (a resumed
	// run reports only the post-checkpoint remainder).
	OverlapStats core.OverlapStats
	// Layout is the read placement that produced the contigs.
	Layout *Layout
	// Contigs holds the polished contig sequences, named contig_<i> by
	// layout index with reads=/len= descriptions — the historical
	// darwin-assemble output shape.
	Contigs []dna.Record
	// Stats summarizes the layout (pre-MinContig filtering).
	Stats Stats
}

// progress is a nil-safe stage progress call.
func (s *Settings) progress(stage string, done, total int) {
	if s.Progress != nil {
		s.Progress(stage, done, total)
	}
}

// overlapStage runs (or resumes, or skips) the overlap pass.
func overlapStage(ctx context.Context, reads []dna.Seq, s *Settings, minOverlap int) ([]core.Overlap, core.OverlapStats, error) {
	stage := tOverlap.Start(obs.SpanFromContext(ctx))
	defer stage.End()
	span := stage.Span()
	span.SetAttr("reads", int64(len(reads)))
	span.SetAttr("workers", int64(core.DefaultWorkers(s.Workers)))
	if err := fpOverlap.Fire(); err != nil {
		return nil, core.OverlapStats{}, err
	}
	if s.Resume.Done(len(reads)) {
		// The checkpoint already covers every read: the pass is a
		// no-op and the checkpointed overlaps are the final set.
		span.SetAttr("resumed_complete", 1)
		s.progress("overlap", len(reads), len(reads))
		return append([]core.Overlap(nil), s.Resume.Overlaps...), core.OverlapStats{}, nil
	}
	ovp := s.Overlapper
	if ovp == nil {
		var err error
		ovp, err = core.NewOverlapper(reads, s.Config)
		if err != nil {
			return nil, core.OverlapStats{}, err
		}
	}
	if s.Resume != nil {
		span.SetAttr("resume_read", int64(s.Resume.NextRead))
	}
	overlaps, stats, err := ovp.Run(ctx, core.OverlapRun{
		MinOverlap:      minOverlap,
		Workers:         s.Workers,
		Resume:          s.Resume,
		CheckpointEvery: s.CheckpointEvery,
		Save:            s.SaveCheckpoint,
		Progress: func(done, total int) {
			s.progress("overlap", done, total)
		},
	})
	span.SetAttr("overlaps", int64(len(overlaps)))
	return overlaps, stats, err
}

// Overlap runs only the overlap stage: every read against every other,
// both strands, deduplicated to the best overlap per (pair,
// orientation). MinOverlap is used directly as the reporting
// threshold. Checkpoint options apply; layout/consensus options are
// ignored.
func Overlap(ctx context.Context, reads []dna.Seq, options ...Option) ([]core.Overlap, core.OverlapStats, error) {
	s := ResolveOptions(options)
	return overlapStage(ctx, reads, &s, s.MinOverlap)
}

// Assemble runs the full overlap-layout-consensus pipeline under ctx:
// all-vs-all overlap (resumable via WithCheckpoint), greedy layout,
// read splicing, and majority-vote polishing. It subsumes the
// positional BuildLayoutContext/Splice/PolishContext free functions.
// Each stage is timed once by its registry timer (olc/overlap,
// stage/layout, olc/consensus, olc/polish), which under a traced ctx is
// also the stage's child span, and is guarded by a fault point
// (olc/overlap, olc/layout, olc/consensus, olc/polish).
func Assemble(ctx context.Context, reads []dna.Seq, options ...Option) (*Assembly, error) {
	defer tAssemble.Start(nil).End()
	s := ResolveOptions(options)
	readLens := make([]int, len(reads))
	for i := range reads {
		readLens[i] = len(reads[i])
	}

	// Overlap. The detection threshold is half the nominal minimum:
	// reference-side clipping at read boundaries trims true overlaps,
	// so detecting at half keeps near-threshold overlaps available to
	// layout (the historical darwin-assemble behaviour).
	overlaps, ostats, err := overlapStage(ctx, reads, &s, s.MinOverlap/2)
	if err != nil {
		return nil, err
	}
	asm := &Assembly{Overlaps: overlaps, OverlapStats: ostats}

	// Layout.
	{
		stage := tLayout.Start(obs.SpanFromContext(ctx))
		stage.Span().SetAttr("overlaps", int64(len(overlaps)))
		if err := fpLayout.Fire(); err != nil {
			stage.End()
			return nil, err
		}
		s.progress("layout", 0, 1)
		layout, err := BuildLayoutContext(ctx, readLens, overlaps)
		if err != nil {
			stage.End()
			return nil, err
		}
		asm.Layout = layout
		asm.Stats = Summarize(layout)
		stage.Span().SetAttr("contigs", int64(len(layout.Contigs)))
		stage.End()
		s.progress("layout", 1, 1)
	}

	// Consensus: splice reads along each surviving contig.
	type draft struct {
		ci  int
		seq dna.Seq
	}
	var drafts []draft
	{
		stage := tConsensus.Start(obs.SpanFromContext(ctx))
		if err := fpConsensus.Fire(); err != nil {
			stage.End()
			return nil, err
		}
		kept := 0
		for _, c := range asm.Layout.Contigs {
			if c.Len >= s.MinContig {
				kept++
			}
		}
		done := 0
		for ci, c := range asm.Layout.Contigs {
			if c.Len < s.MinContig {
				continue
			}
			if err := ctx.Err(); err != nil {
				stage.End()
				return nil, err
			}
			drafts = append(drafts, draft{ci: ci, seq: Splice(reads, c)})
			done++
			s.progress("consensus", done, kept)
		}
		stage.Span().SetAttr("contigs", int64(len(drafts)))
		stage.End()
	}

	// Polish: each multi-read contig gets PolishRounds of majority-vote
	// recall against the read set.
	{
		stage := tPolish.Start(obs.SpanFromContext(ctx))
		span := stage.Span()
		pctx := obs.ContextWithSpan(ctx, span)
		totalRounds := 0
		for _, d := range drafts {
			if len(asm.Layout.Contigs[d.ci].Placements) > 1 {
				totalRounds += s.PolishRounds
			}
		}
		span.SetAttr("rounds", int64(totalRounds))
		span.SetAttr("workers", int64(core.DefaultWorkers(s.Workers)))
		done := 0
		for i := range drafts {
			d := &drafts[i]
			placements := len(asm.Layout.Contigs[d.ci].Placements)
			for round := 0; round < s.PolishRounds && placements > 1; round++ {
				if err := fpPolish.Fire(); err != nil {
					stage.End()
					return nil, err
				}
				polished, err := PolishContext(pctx, d.seq, reads, s.Config, s.Workers)
				if err != nil {
					stage.End()
					return nil, err
				}
				d.seq = polished
				done++
				s.progress("polish", done, totalRounds)
			}
		}
		stage.End()
	}

	for _, d := range drafts {
		asm.Contigs = append(asm.Contigs, dna.Record{
			Name: fmt.Sprintf("contig_%d", d.ci),
			Desc: fmt.Sprintf("reads=%d len=%d", len(asm.Layout.Contigs[d.ci].Placements), len(d.seq)),
			Seq:  d.seq,
		})
	}
	return asm, nil
}
