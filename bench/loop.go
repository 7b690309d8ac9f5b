package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// opCount is the fixed number of operations a timed phase performs: the
// number a machine that does perSecond of them each second completes in
// the run's length, rounded to a whole number per segment. The work of
// a run therefore depends on its command line alone, never on how fast
// the machine happens to be, and every segment holds the same number of
// operations.
func opCount(o options, perSecond float64) int {
	return segments * max(int(math.Round(o.seconds*o.scale*perSecond/segments)), 1)
}

// closedLoop drives the timed phase: operations 0 to ops-1, each exactly
// once, by `clients` goroutines, each of which issues its next operation
// only when its previous one has returned.
//
// op reports how many reads its operation completed; failures it
// records itself.
func closedLoop(clients, ops int, op func(n int) (reads int)) []opSample {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	samples := make([]opSample, ops)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= ops {
					return
				}
				start := time.Since(t0)
				reads := op(n)
				samples[n] = opSample{start: start, end: time.Since(t0), reads: reads}
			}
		}()
	}
	wg.Wait()
	return samples
}
