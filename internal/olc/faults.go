package olc

import "darwin/internal/faults"

// Fault injection points for the assembly pipeline (armed only via
// faults.Setup; a single atomic load each when disarmed). One point
// per stage, fired at stage entry inside Assemble/Overlap, so an
// injected error surfaces through the same error path a served job
// sees:
//
//   - olc/overlap fires before the all-vs-all overlap pass;
//   - olc/layout before the greedy merge;
//   - olc/consensus before read splicing;
//   - olc/polish before each polishing round.
var (
	fpOverlap   = faults.Default.Point("olc/overlap")
	fpLayout    = faults.Default.Point("olc/layout")
	fpConsensus = faults.Default.Point("olc/consensus")
	fpPolish    = faults.Default.Point("olc/polish")
)
