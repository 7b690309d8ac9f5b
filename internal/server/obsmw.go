package server

import (
	"log/slog"
	"net/http"
	"time"

	"darwin/internal/obs"
)

// statusWriter records what the handler told the client — status code
// and, for structured failures, the error code — so the middleware
// can log and window-count the outcome without re-deriving it.
type statusWriter struct {
	http.ResponseWriter
	status  int
	errCode string
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap keeps http.ResponseController features (flush for NDJSON
// streaming) working through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush preserves the pre-ResponseController flusher type assertion
// used by the streaming writers.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setErrCode records the structured error code on the writer when it
// is a statusWriter (plain writers — unit tests hitting handlers
// directly — ignore it).
func setErrCode(w http.ResponseWriter, code string) {
	if sw, ok := w.(*statusWriter); ok && sw.errCode == "" {
		sw.errCode = code
	}
}

// withObs wraps the whole tier: mints the request identity, roots
// the span tree in the request context, echoes X-Request-ID, emits
// the slog access line, feeds the latency histogram and the SLO
// windows, and offers /v1/map spans to the slow-request ring.
func (f *Front) withObs(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := requestIDFrom(r)
		span := obs.NewRequestSpan(reqID, r.Method+" "+r.URL.Path)
		ctx := obs.ContextWithSpan(r.Context(), span)
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(ctx))
		span.End()
		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing: implicit 200
		}

		d := span.Duration()
		isMap := r.URL.Path == "/v1/map"
		if isMap {
			f.hRequestLatency.Observe(float64(d) / float64(time.Millisecond))
			f.stats.observe(d, sw.status, sw.errCode)
			f.slow.Offer(span)
		}

		// Access line: one per request on the serving endpoints. The
		// scrape/probe endpoints (/metrics, /healthz, /readyz) stay
		// debug-level so a tight probe loop does not drown the log.
		level := slog.LevelInfo
		if !isMap && r.URL.Path != "/v1/indexes" {
			level = slog.LevelDebug
		}
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", d),
			slog.String("remote", r.RemoteAddr),
		}
		if sw.errCode != "" {
			attrs = append(attrs, slog.String("error_code", sw.errCode))
		}
		f.log.LogAttrs(ctx, level, "request", attrs...)
	})
}

// serverTiming renders the span's direct stage children as a
// Server-Timing header value (e.g. "admit;dur=0.3, queue_wait;dur=1.2,
// map;dur=8.0, total;dur=9.9") so clients see where server-side
// time went without a debug endpoint round-trip. Only the
// server.-prefixed children appear, under their short names.
func serverTiming(span *obs.Span) string {
	if span == nil {
		return ""
	}
	snap := span.Snapshot()
	var b []byte
	for _, c := range snap.Children {
		name, ok := trimServerStage(c.Name)
		if !ok {
			continue
		}
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = appendTimingEntry(b, name, c.DurationUS)
	}
	if len(b) > 0 {
		b = append(b, ", "...)
	}
	b = appendTimingEntry(b, "total", span.Duration().Microseconds())
	return string(b)
}

func appendTimingEntry(b []byte, name string, us int64) []byte {
	b = append(b, name...)
	b = append(b, ";dur="...)
	ms := us / 1000
	frac := (us % 1000) / 100
	b = appendInt(b, ms)
	b = append(b, '.')
	b = appendInt(b, frac)
	return b
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		v = 0
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

func trimServerStage(name string) (string, bool) {
	const prefix = "server."
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):], true
	}
	return "", false
}
