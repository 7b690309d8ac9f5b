package server

import (
	"context"
	"errors"
	"sync"

	"darwin/internal/obs"
)

// Admission observability: queue depth is the backpressure signal and
// queue wait is what a request paid for arriving while every slot was
// taken.
var (
	cJobs          = obs.Default.Counter("server/jobs")
	cJobsRejected  = obs.Default.Counter("server/jobs_rejected")
	cJobsCancelled = obs.Default.Counter("server/jobs_cancelled")
	gQueueDepth    = obs.Default.Gauge("server/queue_depth")
	hQueueWait     = obs.Default.Histogram("server/queue_wait_ms", 0, 1000, 50)
)

// Admission errors.
var (
	// ErrQueueFull means every slot is taken and so is every waiting
	// place; the caller should surface 429 with a Retry-After hint.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining means the server is shutting down and admits no new
	// work.
	ErrDraining = errors.New("server: draining, not accepting work")
)

// gate is the admission gate of a mapping endpoint. A slot is the
// right to run one request's Map call on one core; a request that
// finds every slot taken waits for one under its own context, unless
// queue requests are waiting already, in which case it is refused.
// Reads share nothing, so requests are never coalesced: each admitted
// request maps on its own engine clone and is cancelled by its own
// context alone.
type gate struct {
	slots chan struct{} // holds one token per running request
	queue int           // most requests that may wait for a slot

	mu       sync.Mutex
	waiting  int           // requests blocked in acquire
	admitted int           // requests waiting for or holding a slot
	idle     chan struct{} // non-nil once draining; closed when admitted reaches 0
}

func newGate(slots, queue int) *gate {
	return &gate{slots: make(chan struct{}, slots), queue: queue}
}

// acquire takes a slot, waiting for one if the queue has room. It
// returns ErrDraining or ErrQueueFull without blocking, or ctx's error
// if ctx ends first; on a nil return the caller holds a slot and must
// release it.
func (g *gate) acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.idle != nil {
		g.mu.Unlock()
		return ErrDraining
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted++
		g.mu.Unlock()
		return nil
	default:
	}
	if g.waiting >= g.queue {
		g.mu.Unlock()
		return ErrQueueFull
	}
	g.waiting++
	g.admitted++
	g.mu.Unlock()

	gQueueDepth.Add(1)
	var err error
	select {
	case g.slots <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	gQueueDepth.Add(-1)

	g.mu.Lock()
	g.waiting--
	if err != nil {
		g.leaveLocked()
	}
	g.mu.Unlock()
	return err
}

// release returns the caller's slot.
func (g *gate) release() {
	<-g.slots
	g.mu.Lock()
	g.leaveLocked()
	g.mu.Unlock()
}

// leaveLocked records one admitted request leaving the gate; the last
// one out of a draining gate wakes drain.
func (g *gate) leaveLocked() {
	g.admitted--
	if g.idle != nil && g.admitted == 0 {
		close(g.idle)
	}
}

// drain refuses newcomers from now on and waits until every request
// already admitted, waiting or running, has left, or until ctx ends.
// Calling it again waits again.
func (g *gate) drain(ctx context.Context) error {
	g.mu.Lock()
	if g.idle == nil {
		g.idle = make(chan struct{})
		if g.admitted == 0 {
			close(g.idle)
		}
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
