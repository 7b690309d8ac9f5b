// Command darwin-router is the stateless scatter-gather tier of a
// darwind cluster: it owns no index, only a static cluster map, and
// fans each /v1/map batch out to shard-owning darwind workers
// (rendezvous hashing, N-way replication), hedges the slowest replica
// after a latency quantile, and merges sub-responses bit-identically
// to a monolithic darwind — same NDJSON lines, same SAM bytes.
//
// Usage:
//
//	darwin-router -addr :8850 \
//	  -workers w0=127.0.0.1:8851,w1=127.0.0.1:8852 -replication 2
//
// Endpoints:
//
//	POST /v1/map      same contract as darwind (?format=sam too)
//	GET  /v1/cluster  resolved topology, breaker states, latencies
//	GET  /healthz     liveness
//	GET  /readyz      readiness (200 once the cluster probe passed)
//	GET  /metrics     OpenMetrics, cluster/* families
//	GET  /v1/stats    rolling 1m/5m SLO windows, as on darwind
//	GET  /debug/slow  slowest requests, each scatter span naming its worker
//
// At boot the router probes every worker's /v1/shards and refuses to
// serve unless all workers agree on geometry, reference layout, index
// fingerprint, and the shard ownership the shared map implies —
// a cluster that cannot merge bit-identically must not start.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"darwin/internal/cluster"
	"darwin/internal/faults"
	"darwin/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-router:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8850", "listen address (use :0 for an ephemeral port)")
	workers := flag.String("workers", "", "worker roster as name=url,name=url (required; names must match each worker's -worker-name)")
	replication := flag.Int("replication", 2, "replicas per shard (must match the workers' -cluster-replication)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.9, "per-worker latency quantile after which a sub-request is hedged to the next replica")
	hedgeMin := flag.Duration("hedge-min", 2*time.Millisecond, "lower clamp on the adaptive hedge delay")
	hedgeMax := flag.Duration("hedge-max", 2*time.Second, "upper clamp on the adaptive hedge delay (also used while latency windows are empty)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed hedge delay overriding the adaptive quantile (0 = adaptive)")
	reqTimeout := flag.Duration("req-timeout", 60*time.Second, "per-request deadline cap")
	maxReads := flag.Int("max-reads", 1024, "max reads per request")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive sub-request failures that open a worker's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker rejects before admitting a probe")
	probeTimeout := flag.Duration("probe-timeout", 30*time.Second, "boot-time budget for the cluster ownership probe")
	faultSpec := flag.String("faults", "", "fault-injection spec (requires DARWIN_ALLOW_FAULTS=1); see internal/faults")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *workers == "" {
		return fmt.Errorf("-workers is required")
	}
	if spec, err := faults.Setup(*faultSpec); err != nil {
		return err
	} else if spec != "" {
		log.Warn("fault injection active: " + spec)
	}
	session, err := obsFlags.Start("darwin-router")
	if err != nil {
		return err
	}
	defer session.Close()

	roster, err := cluster.ParseWorkers(*workers)
	if err != nil {
		return err
	}
	rt, err := cluster.New(cluster.Config{
		Workers:            roster,
		Replication:        *replication,
		HedgeQuantile:      *hedgeQuantile,
		HedgeMin:           *hedgeMin,
		HedgeMax:           *hedgeMax,
		HedgeDelay:         *hedgeDelay,
		RequestTimeout:     *reqTimeout,
		MaxReadsPerRequest: *maxReads,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		Logger:             log,
	})
	if err != nil {
		return err
	}

	probeStart := time.Now()
	pctx, pcancel := context.WithTimeout(context.Background(), *probeTimeout)
	err = rt.Probe(pctx)
	pcancel()
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	log.Info("cluster probe passed", "workers", len(roster), "replication", *replication,
		"took", time.Since(probeStart).Round(time.Millisecond))

	return rt.Serve(*addr, "POST /v1/map, /healthz, /readyz, /metrics, /v1/stats, /v1/cluster", 30*time.Second, nil)
}
