package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve is a serving process's main loop: listen on addr, serve the
// front until SIGTERM or SIGINT, then drain — stop admitting (readyz →
// 503, map → 503), let in-flight handlers finish via HTTP shutdown, run
// the tier's own drain (nil if it has none), and dump the slow-request
// ring, all within grace. endpoints names the tier's routes in the
// "serving on" line.
func (f *Front) Serve(addr, endpoints string, grace time.Duration, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: f.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	// The message keeps the full URL inline (not an attr): the smoke
	// scripts and operators scrape the bound address out of this line.
	f.log.Info(fmt.Sprintf("serving on http://%s/ (%s)", ln.Addr(), endpoints))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		f.log.Info("signal received, draining (stop accepting, flush in-flight)", "signal", sig.String())
	}

	f.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if drain != nil {
		if err := drain(ctx); err != nil {
			return err
		}
	}
	f.log.Info("drain complete, all in-flight work flushed")

	// The slowest requests of a finished process survive it in the log,
	// one line per capture with its full span tree — /debug/slow dies
	// with the listener.
	caps := f.slow.Snapshot()
	if len(caps) > 0 {
		f.log.Info("slow-request captures at drain", "count", len(caps))
	}
	for _, c := range caps {
		tree, err := json.Marshal(c.Span)
		if err != nil {
			continue
		}
		f.log.Info("slow request", "request_id", c.RequestID, "duration_us", c.DurationUS, "span", string(tree))
	}
	return nil
}
