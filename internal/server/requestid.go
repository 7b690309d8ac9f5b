package server

import (
	"net/http"
	"strings"

	"darwin/internal/obs"
)

// Request identity. Every request gets exactly one ID at ingress —
// the client's X-Request-ID if it sent one, the trace-id of a W3C
// traceparent header otherwise, a freshly minted random ID as the
// fallback — and that ID follows the request through the slog access
// line, the span tree, every NDJSON response record, and the error
// envelope. The response always echoes it in X-Request-ID so clients
// can quote the server's identity for a failure even when they did
// not supply their own.

// maxRequestIDLen caps inbound IDs: identities are for correlation,
// not payload smuggling. Longer values are truncated, not rejected.
const maxRequestIDLen = 64

// requestIDFrom extracts or mints the request's identity.
func requestIDFrom(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	if id := traceparentID(r.Header.Get("traceparent")); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// sanitizeRequestID keeps IDs loggable: printable ASCII without
// spaces, quotes, or header-breaking characters; bounded length.
func sanitizeRequestID(id string) string {
	if id == "" {
		return ""
	}
	var b strings.Builder
	for _, c := range id {
		if b.Len() >= maxRequestIDLen {
			break
		}
		if c > 0x20 && c < 0x7f && c != '"' && c != '\\' && c != ',' && c != ';' {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// traceparentID pulls the 32-hex trace-id field out of a W3C
// traceparent header ("00-<trace-id>-<parent-id>-<flags>"), returning
// "" for anything malformed or all-zero.
func traceparentID(tp string) string {
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return ""
	}
	allZero := true
	for _, c := range parts[1] {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
			if c != '0' {
				allZero = false
			}
		default:
			return ""
		}
	}
	if allZero {
		return ""
	}
	return parts[1]
}
