package server

import (
	"sync"
	"time"
)

// Breaker is a circuit breaker over one cluster worker's sub-requests.
// Repeated consecutive failures mean the worker is down or sick, and
// sending it every sub-request just spends an attempt per shard on it.
// After Threshold consecutive failures the breaker opens: Allow refuses
// until Cooldown passes, then admits a single probe (half-open), whose
// outcome closes or re-opens the circuit. The router counts the
// transitions in its own cluster/* metrics.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int
	state    breakerState
	openedAt time.Time
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// NewBreaker returns a closed breaker (threshold min 1, cooldown min
// 1ms).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an attempt may proceed. In the open state it
// returns false until the cooldown elapses, then admits exactly one
// probe (half-open); while that probe is in flight every other caller
// keeps failing fast.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// Success records a successful attempt, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// ReportFailure records a failed attempt: in the closed state it opens
// the circuit once Threshold consecutive failures accumulate; a failed
// half-open probe re-opens immediately. It reports whether this failure
// opened the circuit, so the router counts open transitions without
// polling State.
func (b *Breaker) ReportFailure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case breakerClosed:
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			return true
		}
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
		return true
	}
	return false
}

// State returns the current state name (for tests and debug output).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
