package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// Flags bundles the standard observability CLI surface every tool
// exposes: -debug-addr, -report, and -trace-out.
type Flags struct {
	DebugAddr  string
	ReportPath string
	TracePath  string
}

// AddFlags registers the observability flags on fs (usually
// flag.CommandLine) and returns the destination struct.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve pprof/expvar/stage-summary debug HTTP on this address (e.g. :6060, :0; empty disables)")
	fs.StringVar(&f.ReportPath, "report", "", "write a machine-readable JSON run report to this path on exit")
	fs.StringVar(&f.TracePath, "trace-out", "", "write Chrome trace_event JSON spans to this path on exit")
	return f
}

// Session is one observed tool invocation: a Run over the Default
// registry plus the optional debug server and tracer, started from
// parsed Flags. Close writes the report and trace and stops the
// server.
type Session struct {
	Run    *Run
	flags  *Flags
	server *Server
}

// Start begins the session: starts the debug server if requested,
// enables the tracer if a trace path was given, and opens the Run.
// Progress and the final report measure from this moment.
func (f *Flags) Start(tool string) (*Session, error) {
	s := &Session{flags: f}
	if f.DebugAddr != "" {
		srv, err := ServeDebug(f.DebugAddr, Default, Trace)
		if err != nil {
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s/ (pprof, /debug/vars, /debug/stages)\n", tool, srv.Addr())
	}
	if f.TracePath != "" {
		Trace.Enable()
	}
	s.Run = NewRun(tool)
	return s, nil
}

// DebugAddr returns the bound debug address, or "" when disabled.
func (s *Session) DebugAddr() string {
	if s.server == nil {
		return ""
	}
	return s.server.Addr()
}

// Close finalizes the session: writes the JSON report and the Chrome
// trace if their paths were set, then shuts down the debug server.
// Write failures are reported on stderr as well as returned, since
// callers commonly defer Close and drop the error.
func (s *Session) Close() error {
	var firstErr error
	if s.flags.ReportPath != "" {
		rep := s.Run.Report()
		rep.Args = os.Args[1:]
		if err := rep.WriteJSON(s.flags.ReportPath); err != nil {
			fmt.Fprintf(os.Stderr, "%s: failed to write run report: %v\n", rep.Tool, err)
			firstErr = err
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote run report to %s (%d stages, %.2fs wall)\n",
				rep.Tool, s.flags.ReportPath, len(rep.Stages), rep.WallSeconds)
		}
	}
	if s.flags.TracePath != "" {
		f, err := os.Create(s.flags.TracePath)
		if err == nil {
			err = Trace.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil && Trace.Dropped() > 0 {
				fmt.Fprintf(os.Stderr, "obs: trace capped, %d spans dropped\n", Trace.Dropped())
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: failed to write trace: %v\n", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if s.server != nil {
		if err := s.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NewLogger builds a daemon's process logger on w from its -log-format
// and -log-level flags. Text is the operator default; json feeds log
// pipelines. Either way each access line carries its request_id, so
// grep by ID works across formats.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}
