package core

import (
	"fmt"
	"sync"

	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/seedtable"
)

// Worker is one goroutine's private mapping machinery — the hardware's
// per-array SRAM: a D-SOFT filter (bin counts), a GACT engine
// (traceback) and the buffers a read reuses (its candidates, its
// reverse complement, its GACT candidates over both strands, their
// outcomes and, in mapRead, each one's reference window offset).
// Everything else an engine holds is immutable and shared.
type Worker struct {
	Filter *dsoft.Filter
	Engine *gact.Engine

	cands  []dsoft.Candidate
	revBuf dna.Seq
	ext    []gact.Candidate
	outs   []gact.Outcome
	winLo  []int
}

// newWorker derives the filter and GACT engine cfg describes; it is the
// one place the Config → dsoft.Config / gact.Config plumbing lives
// (HTile becomes the engine's first-tile threshold). A nil table leaves
// the filter unbound, to be pointed at shard tables with
// Filter.SetTable.
func newWorker(table *seedtable.Table, cfg Config) (*Worker, error) {
	filter, err := dsoft.New(table, dsoft.Config{
		N:       cfg.SeedN,
		H:       cfg.Threshold,
		BinSize: cfg.BinSize,
		Stride:  cfg.SeedStride,
	})
	if err != nil {
		return nil, fmt.Errorf("core: configuring D-SOFT: %w", err)
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	engine, err := gact.NewEngine(&g)
	if err != nil {
		return nil, fmt.Errorf("core: configuring GACT: %w", err)
	}
	return &Worker{Filter: filter, Engine: engine}, nil
}

// Query runs the worker's D-SOFT filter over q into its reused
// candidate buffer; the candidates stay valid until its next Query.
func (w *Worker) Query(q dna.Seq) ([]dsoft.Candidate, dsoft.Stats) {
	cands, st := w.Filter.QueryInto(q, w.cands[:0])
	w.cands = cands
	return cands, st
}

// Extensions returns the worker's reused GACT candidate buffer, empty,
// for a read's candidates over both strands; hand it, appended to, to
// Extend.
func (w *Worker) Extensions() []gact.Candidate { return w.ext[:0] }

// Extend runs the GACT extension of a read's candidates, cands, in one
// gact.Engine.ExtendBatch call, and returns their outcomes in order,
// valid until the worker's next Extend. It keeps cands' storage for the
// worker's next Extensions.
func (w *Worker) Extend(cands []gact.Candidate) []gact.Outcome {
	w.ext = cands
	if cap(w.outs) < len(cands) {
		w.outs = make([]gact.Outcome, len(cands))
	}
	outs := w.outs[:len(cands)]
	w.Engine.ExtendBatch(cands, outs)
	return outs
}

// Pool is an engine's free list of Workers, the one place both engines
// keep their per-goroutine state, so an engine is safe for concurrent
// use and no caller ever copies one: a call takes the workers it maps
// on and puts them back when done, and the list grows to the engine's
// peak concurrency. It is a plain list behind a mutex rather than a
// sync.Pool, which would drop the idle workers at every GC.
type Pool struct {
	table *seedtable.Table
	cfg   Config

	mu   sync.Mutex
	free []*Worker
}

// NewPool returns a pool of workers over table — nil for the sharded
// engine, whose workers are bound to each shard's table in turn. Its
// first worker is built now, so a bad configuration fails here; every
// later build repeats the same construction and cannot fail.
func NewPool(table *seedtable.Table, cfg Config) (*Pool, error) {
	w, err := newWorker(table, cfg)
	if err != nil {
		return nil, err
	}
	return &Pool{table: table, cfg: cfg, free: []*Worker{w}}, nil
}

// Get takes a free worker, or builds one.
func (p *Pool) Get() *Worker {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	w, err := newWorker(p.table, p.cfg)
	if err != nil {
		panic(err) // NewPool built one from the same arguments
	}
	return w
}

// Take takes n workers.
func (p *Pool) Take(n int) []*Worker {
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = p.Get()
	}
	return ws
}

// Put returns workers to the free list. A worker a panic ran through
// may hold half-updated state and must be dropped, not put back.
func (p *Pool) Put(ws ...*Worker) {
	p.mu.Lock()
	p.free = append(p.free, ws...)
	p.mu.Unlock()
}
