package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"darwin/internal/obs"
)

// Error codes on the wire. Clients branch on the code, not the
// message: the code set is the API, the message is diagnostics.
const (
	CodeBadRequest      = "bad_request"
	CodeMethodNotAllow  = "method_not_allowed"
	CodeTooManyReads    = "too_many_reads"
	CodeRefLoadDisabled = "ref_load_disabled"
	CodeRefLoadFailed   = "ref_load_failed"
	CodeCircuitOpen     = "circuit_open"
	CodeFaultInjected   = "fault_injected"
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeWarming         = "warming"
	CodeNoIndex         = "no_index"
	CodeDeadline        = "deadline_exceeded"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
	CodeShardNotOwned   = "shard_not_owned"
	CodeScatterFailed   = "scatter_failed"

	// Job API codes (see jobs.go).
	CodeJobNotFound     = "job_not_found"
	CodeJobCanceled     = "job_canceled"
	CodeJobNotDone      = "job_not_done"
	CodePayloadTooLarge = "payload_too_large"
	// checkpoint_corrupt rides through jobs.Status.ErrorCode; the
	// constant exists so handlers and tests name it consistently.
	CodeCheckpointCorrupt = "checkpoint_corrupt"
)

// ErrorBody is the structured JSON error envelope every non-200
// response carries:
// {"error":{"code":...,"message":...,"request_id":...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the code + human-readable message pair, stamped with
// the request identity so a client-side failure joins to the server's
// access line and span capture for the same request.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// httpError writes a structured JSON error with status code, carrying
// ctx's request identity in the envelope. Headers (Retry-After etc.)
// must be set before calling.
func httpError(ctx context.Context, w http.ResponseWriter, status int, code string, format string, args ...any) {
	setErrCode(w, code)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		RequestID: obs.RequestIDFromContext(ctx),
	}})
}
