package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Server is the opt-in debug HTTP endpoint: net/http/pprof profiles,
// an expvar-style JSON view of the registry, a plain-text stage
// summary, and the Chrome trace dump. It binds eagerly (so ":0" works
// and the bound address is known) and serves in the background.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts the debug endpoint on addr (e.g. ":6060" or ":0"
// for an ephemeral port) over the given registry and the process
// tracer, Trace.
func ServeDebug(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Snapshot
			Now        time.Time `json:"now"`
			Goroutines int       `json:"goroutines"`
			HeapAlloc  uint64    `json:"heap_alloc_bytes"`
			TotalAlloc uint64    `json:"total_alloc_bytes"`
			NumGC      uint32    `json:"num_gc"`
		}{
			Snapshot:   reg.Snapshot(),
			Now:        time.Now(),
			Goroutines: runtime.NumGoroutine(),
			HeapAlloc:  ms.HeapAlloc,
			TotalAlloc: ms.TotalAlloc,
			NumGC:      ms.NumGC,
		})
	})
	mux.HandleFunc("/debug/stages", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, reg.Snapshot().Summary())
	})
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/debug/chrome-trace", func(w http.ResponseWriter, _ *http.Request) {
		if !Trace.Enabled() && Trace.Len() == 0 {
			http.Error(w, "tracer disabled (run with -trace-out or enable obs.Trace)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		Trace.WriteChromeTrace(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>darwin debug</h1><ul>
<li><a href="/debug/stages">stage summary</a></li>
<li><a href="/debug/vars">registry JSON</a></li>
<li><a href="/metrics">OpenMetrics exposition</a></li>
<li><a href="/debug/pprof/">pprof</a></li>
<li><a href="/debug/chrome-trace">chrome trace</a></li>
</ul></body></html>`)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// MetricsHandler serves the registry in OpenMetrics text format —
// mounted at /metrics on both the debug endpoint and darwind's main
// listener so one scrape config covers both.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		WriteOpenMetrics(w, reg.Snapshot())
	})
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
