//go:build !race

// The race detector changes allocation behaviour, so the allocation
// pin lives behind !race; `make check` runs it in a separate non-race
// pass (test-allocs).

package obs

import "testing"

// An untraced stage — the CLIs' and benchmarks' path through every
// Timer.Start — allocates nothing.
func TestStageSteadyStateAllocs(t *testing.T) {
	tm := NewRegistry().Timer("core/worker_busy")
	if n := testing.AllocsPerRun(100, func() { tm.StartOn(nil, 3).End() }); n != 0 {
		t.Errorf("untraced stage allocates %.1f times per call, want 0", n)
	}
}
