// Command darwind is the long-running alignment service: it loads one
// reference index once (the cost the paper's Table 3 amortizes away),
// keeps it resident, and maps reads arriving over HTTP/JSON against it:
// each request takes a slot of an admission gate (one slot per CPU,
// -queue waiters, overflow → 429) and maps on its own core under its
// own deadline, with graceful drain.
//
// Usage:
//
//	darwind -addr :8844 -ref ref.fa -k 12 -n 750 -h 24
//
// Endpoints:
//
//	POST /v1/map     {"reads":[{"name":"r1","seq":"ACGT..."}]} → NDJSON
//	                 (?format=sam streams SAM text instead)
//	GET  /healthz    liveness (200 while the process runs)
//	GET  /readyz     readiness (200 once the default index is warm)
//	GET  /v1/indexes the resident index's metadata
//
// SIGTERM/SIGINT starts a graceful drain: /readyz flips to 503, new
// requests are rejected, in-flight requests finish, and the final
// darwin-run-report/v1 is written if -report was given.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"darwin/internal/cluster"
	"darwin/internal/faults"
	"darwin/internal/indexio"
	"darwin/internal/jobs"
	"darwin/internal/obs"
	"darwin/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwind:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8844", "listen address (use :0 for an ephemeral port)")
	refPath := flag.String("ref", "", "reference FASTA, indexed at startup and served (required)")
	engineFlags := indexio.AddFlags(flag.CommandLine)
	queueBound := flag.Int("queue", 256, "max /v1/map requests waiting for a mapping slot, one slot per CPU (overflow → 429)")
	reqTimeout := flag.Duration("req-timeout", 60*time.Second, "per-request deadline cap")
	maxReads := flag.Int("max-reads", 1024, "max reads per request")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to flush in-flight work on shutdown")
	leakCheck := flag.Bool("leak-check", false, "after drain, verify goroutines returned to the pre-serve baseline (exit 1 on leak)")
	workerName := flag.String("worker-name", "", "cluster-worker mode: this process's name in the cluster map (requires -cluster-workers and a sharded engine)")
	clusterWorkers := flag.String("cluster-workers", "", "cluster roster as name=url,name=url — must match darwin-router's -workers exactly")
	clusterReplication := flag.Int("cluster-replication", 2, "replicas per shard in the cluster map — must match darwin-router")
	jobsDir := flag.String("jobs-dir", "", "enable the assembly job API, persisting jobs under this directory")
	jobsConcurrency := flag.Int("jobs-concurrency", 1, "max simultaneously executing assembly jobs")
	jobsCkptEvery := flag.Int("jobs-checkpoint-every", 16, "overlap-stage checkpoint cadence in reads")
	faultSpec := flag.String("faults", "", "fault-injection spec (requires DARWIN_ALLOW_FAULTS=1); see internal/faults")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	slowCapture := flag.Int("slow-capture", 16, "slowest /v1/map requests to keep span trees for (/debug/slow; 0 disables)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *refPath == "" {
		return fmt.Errorf("-ref is required")
	}
	if spec, err := faults.Setup(*faultSpec); err != nil {
		return err
	} else if spec != "" {
		log.Warn("fault injection active: " + spec)
	}
	session, err := obsFlags.Start("darwind")
	if err != nil {
		return err
	}
	defer session.Close()

	cfg, scfg, src, err := engineFlags.Resolve(*refPath)
	if err != nil {
		return err
	}

	var workerCfg server.WorkerConfig
	if *workerName != "" {
		ws, err := cluster.ParseWorkers(*clusterWorkers)
		if err != nil {
			return fmt.Errorf("-cluster-workers: %w", err)
		}
		cmap, err := cluster.NewMap(ws, *clusterReplication)
		if err != nil {
			return err
		}
		name := *workerName
		workerCfg = server.WorkerConfig{
			Enabled: true,
			Name:    name,
			// Ownership is derived from the actual index geometry at
			// warm time: without -shards the shard count is the one a
			// sharded -index file records, so it cannot be hashed
			// before the index is open.
			AssignShards: func(shards int) ([]int, error) { return cmap.OwnedBy(name, shards) },
		}
	} else if *clusterWorkers != "" {
		return fmt.Errorf("-cluster-workers requires -worker-name")
	}

	var jobMgr *jobs.Manager
	if *jobsDir != "" {
		jobMgr, err = jobs.New(jobs.Config{
			Dir:             *jobsDir,
			Concurrency:     *jobsConcurrency,
			CheckpointEvery: *jobsCkptEvery,
			Logger:          log,
		})
		if err != nil {
			return fmt.Errorf("jobs manager: %w", err)
		}
	}

	srv := server.New(server.Config{
		DefaultRef:         *refPath,
		DefaultIndex:       src.Index,
		DisableSidecar:     !src.Sidecar,
		Core:               cfg,
		Shard:              scfg,
		QueueBound:         *queueBound,
		RequestTimeout:     *reqTimeout,
		MaxReadsPerRequest: *maxReads,
		Logger:             log,
		SlowCapture:        *slowCapture,
		Worker:             workerCfg,
		Jobs:               jobMgr,
	})

	// The leak-check baseline is taken before warm/serve, so it measures
	// exactly the goroutines the drain is supposed to reclaim.
	baselineGoroutines := runtime.NumGoroutine()

	warmStart := time.Now()
	if err := srv.Warm(context.Background()); err != nil {
		return fmt.Errorf("warming default index: %w", err)
	}
	log.Info("default index warm", "k", cfg.SeedK, "took", time.Since(warmStart).Round(time.Millisecond))

	if jobMgr != nil {
		// Recovery after warm: resumed jobs start executing immediately,
		// and their overlap passes should not race the index build for
		// CPU during startup.
		restarted, err := jobMgr.Recover()
		if err != nil {
			return fmt.Errorf("job recovery: %w", err)
		}
		if restarted > 0 {
			log.Info("jobs recovered from previous process", "restarted", restarted)
		}
	}

	endpoints := "POST /v1/map, /healthz, /readyz, /metrics, /v1/stats"
	if jobMgr != nil {
		endpoints += ", /v1/jobs"
	}
	err = srv.Serve(*addr, endpoints, *drainTimeout, func(ctx context.Context) error {
		// After the HTTP shutdown, close the admission gates and wait
		// for them to empty.
		if err := srv.Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if jobMgr != nil {
			// Job drain cancels running pipelines; each saves a final
			// checkpoint at its cancellation boundary, so the next process
			// resumes instead of restarting.
			if err := jobMgr.Drain(ctx); err != nil {
				return fmt.Errorf("jobs drain: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if *leakCheck {
		if leaked := checkGoroutineLeak(baselineGoroutines); leaked > 0 {
			return fmt.Errorf("leak check: %d goroutines above pre-serve baseline %d after drain", leaked, baselineGoroutines)
		}
		log.Info("leak check passed, goroutines back to baseline")
	}
	return nil
}

// checkGoroutineLeak waits (up to ~3s) for the goroutine count to
// settle back to the pre-serve baseline. A small tolerance absorbs
// runtime helpers (signal handling, finalizers) that come and go
// outside our control; anything beyond it is a real leak — a handler
// or watchdog the drain failed to reclaim. Returns the excess count,
// or 0 if the process settled.
func checkGoroutineLeak(baseline int) int {
	const tolerance = 3
	deadline := time.Now().Add(3 * time.Second)
	for {
		excess := runtime.NumGoroutine() - baseline - tolerance
		if excess <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return excess
		}
		time.Sleep(50 * time.Millisecond)
	}
}
