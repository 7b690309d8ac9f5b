package server

import "darwin/internal/faults"

// Fault injection points for the serving layer (armed only via
// faults.Setup):
//
//   - server/admit fires per validated mapping request (/v1/map and
//     /v1/cluster/scatter) before it asks the gate for a slot — an
//     error turns into a structured 503, a delay models slow admission
//     control.
//   - server/flush fires per /v1/map request that holds a slot, just
//     before its Map call — an error or panic must fail only that
//     request with a structured error and free its slot (the recover
//     wrapper in mapReads is what a chaos run is proving). The name
//     predates the gate and is kept so existing -faults specs parse.
//   - server/stream fires per NDJSON response line — an error replaces
//     that read's line with a structured error line, a delay models a
//     slow client connection.
var (
	fpAdmit  = faults.Default.Point("server/admit")
	fpFlush  = faults.Default.Point("server/flush")
	fpStream = faults.Default.Point("server/stream")
)
