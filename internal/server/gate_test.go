package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitFor polls cond until it holds; the gate's counters are the only
// way to see that a goroutine has reached its blocking point.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (g *gate) counts() (waiting, admitted int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting, g.admitted
}

// TestGate drives one gate per case through the admission contract.
// Every case ends by draining its gate, so a slot or a waiting place
// that leaked would show as a drain that never returns.
func TestGate(t *testing.T) {
	bg := context.Background()
	mustAcquire := func(t *testing.T, g *gate) {
		t.Helper()
		if err := g.acquire(bg); err != nil {
			t.Fatalf("acquire = %v, want a slot", err)
		}
	}
	// park starts an acquire that has to wait and returns once it is
	// counted as waiting.
	park := func(t *testing.T, g *gate, ctx context.Context) <-chan error {
		t.Helper()
		before, _ := g.counts()
		got := make(chan error, 1)
		go func() { got <- g.acquire(ctx) }()
		waitFor(t, "the waiter to queue", func() bool { w, _ := g.counts(); return w == before+1 })
		return got
	}

	cases := []struct {
		name         string
		slots, queue int
		run          func(t *testing.T, g *gate)
	}{
		{"slot free: immediate", 2, 0, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			mustAcquire(t, g)
			g.release()
			g.release()
		}},
		{"slots full, queue has room: waits, then runs", 1, 1, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			got := park(t, g, bg)
			select {
			case err := <-got:
				t.Fatalf("waiter returned %v while the slot was still held", err)
			case <-time.After(20 * time.Millisecond):
			}
			g.release()
			if err := <-got; err != nil {
				t.Fatalf("waiter = %v, want the freed slot", err)
			}
			g.release()
		}},
		{"queue at its bound: queue_full", 1, 1, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			got := park(t, g, bg)
			if err := g.acquire(bg); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("acquire past the bound = %v, want ErrQueueFull", err)
			}
			g.release()
			if err := <-got; err != nil {
				t.Fatal(err)
			}
			g.release()
		}},
		{"context ends while waiting: its error, nothing freed", 1, 1, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			ctx, cancel := context.WithCancel(bg)
			got := park(t, g, ctx)
			cancel()
			if err := <-got; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
			}
			// The holder's slot is still held and the waiting place is
			// free again: one more request can queue, a second cannot.
			if w, a := g.counts(); w != 0 || a != 1 || len(g.slots) != 1 {
				t.Fatalf("after a cancelled wait: waiting=%d admitted=%d slots=%d, want 0, 1, 1", w, a, len(g.slots))
			}
			again := park(t, g, bg)
			g.release()
			if err := <-again; err != nil {
				t.Fatal(err)
			}
			g.release()
		}},
		{"no waiting places: never blocks", 1, 0, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			if err := g.acquire(bg); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("acquire on a full zero-queue gate = %v, want ErrQueueFull at once", err)
			}
			g.release()
		}},
		{"drain: waits for holder and waiter, refuses newcomers", 1, 1, func(t *testing.T, g *gate) {
			mustAcquire(t, g)
			got := park(t, g, bg)
			drained := make(chan error, 1)
			go func() { drained <- g.drain(bg) }()
			waitFor(t, "drain to close the gate", func() bool { return errors.Is(g.acquire(bg), ErrDraining) })
			select {
			case err := <-drained:
				t.Fatalf("drain returned %v with a request still holding a slot", err)
			case <-time.After(20 * time.Millisecond):
			}
			short, cancel := context.WithTimeout(bg, 10*time.Millisecond)
			defer cancel()
			if err := g.drain(short); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("drain under an expired context = %v, want its error", err)
			}
			g.release() // the waiter admitted before the drain still gets its turn
			if err := <-got; err != nil {
				t.Fatalf("waiter admitted before the drain = %v, want the slot", err)
			}
			g.release()
			if err := <-drained; err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newGate(tc.slots, tc.queue)
			tc.run(t, g)
			ctx, cancel := context.WithTimeout(bg, 5*time.Second)
			defer cancel()
			if err := g.drain(ctx); err != nil {
				t.Fatalf("final drain: %v (a slot or waiting place leaked)", err)
			}
			if w, a := g.counts(); w != 0 || a != 0 || len(g.slots) != 0 {
				t.Fatalf("after drain: waiting=%d admitted=%d slots=%d, want all 0", w, a, len(g.slots))
			}
		})
	}
}
