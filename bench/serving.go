package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/cluster"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/indexio"
	"darwin/internal/metrics"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/sam"
	"darwin/internal/server"
	"darwin/internal/shard"
)

const (
	serveShards  = 4
	readsPerReq  = 2
	serveReadLen = 1000
	// verifyReqs is how many responses the untraced run compares byte
	// for byte with in-process server.RecordsFor (every response is
	// checked structurally and scored).
	verifyReqs = 100
	// layerReqs is how many requests the traced run drives each way.
	layerReqs = 400
)

// serveBench is a closed loop of W clients posting small NDJSON map
// requests over loopback TCP, either to one server (the batcher path)
// or to a router in front of two workers (the scatter path). Both
// variants generate identical indexes, reads and request bodies; the
// faster path is sent more of them.
type serveBench struct {
	cluster bool
	// perSecond is the number of requests the reference machine answers
	// in a second; with the run's length it fixes how many a run sends.
	perSecond float64
	cfg       core.Config
	spec      core.ShardSpec

	recs   []dna.Record
	reads  []readsim.Read
	bodies [][]byte

	fasta, dwi string
	writeS     float64 // time indexio.WriteFile took
	url        string
	handler    http.Handler // what url serves, for in-memory requests
	shutdown   []func()

	// Timed-phase outputs: the response bodies, and what went wrong.
	responses [][]byte
	transport atomic.Int64 // requests that failed to complete or were not 200
	mu        sync.Mutex
	firstErr  error
}

func newServeBench(clustered bool) *serveBench {
	b := &serveBench{
		cluster:   clustered,
		perSecond: 200,
		cfg:       core.DefaultConfig(12, 600, 22),
		spec:      core.ShardSpec{Shards: serveShards},
	}
	if clustered {
		b.perSecond = 330
	}
	return b
}

func newServeDirect() bench  { return newServeBench(false) }
func newServeCluster() bench { return newServeBench(true) }

func (b *serveBench) generate(o options) error {
	g, err := genome.Generate(genome.Config{Length: scaled(2_000_000, o.scale, 200_000), GC: 0.45, Seed: subSeed(o.seed, 1)})
	if err != nil {
		return err
	}
	b.recs = []dna.Record{{Name: "chr1", Seq: g.Seq}}
	nReq := opCount(o, b.perSecond)
	b.reads, err = readsim.SimulateN(g.Seq, nReq*readsPerReq, readsim.Config{Profile: readsim.PacBio, MeanLen: serveReadLen, Seed: subSeed(o.seed, 2)})
	if err != nil {
		return err
	}
	b.bodies = make([][]byte, nReq)
	for i := range b.bodies {
		var req server.MapRequest
		for _, r := range b.reads[i*readsPerReq : (i+1)*readsPerReq] {
			req.Reads = append(req.Reads, server.ReadInput{Name: r.Name, Seq: r.Seq})
		}
		if b.bodies[i], err = json.Marshal(req); err != nil {
			return err
		}
	}
	// The reference and its sharded .dwi are inputs too: a server is
	// deployed against an index built beforehand, and writing 278 MB
	// through fsync measures the disk's mood more than the program
	// (0.9 s or 2 s on the same sandbox, minutes apart).
	b.fasta = filepath.Join(o.dir, "ref.fa")
	f, err := os.Create(b.fasta)
	if err != nil {
		return err
	}
	if err := dna.WriteFASTA(f, b.recs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.dwi = filepath.Join(o.dir, "ref.dwi")
	t := time.Now()
	_, err = indexio.WriteFile(b.dwi, b.recs, b.cfg, b.spec)
	b.writeS = time.Since(t).Seconds()
	return err
}

// listen serves h on a fresh loopback port until the returned stop.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// startServer warms a server from the prebuilt index and serves it;
// stop closes the listener and then drains the server's batcher.
func startServer(cfg server.Config) (h http.Handler, url string, stop func(), err error) {
	s := server.New(cfg)
	if err := s.Warm(context.Background()); err != nil {
		return nil, "", nil, err
	}
	h = s.Handler()
	url, stopHTTP, err := listen(h)
	if err != nil {
		return nil, "", nil, err
	}
	return h, url, func() {
		stopHTTP()
		s.StartDrain()
		s.Drain(context.Background()) // nothing is in flight once the listener is closed
	}, nil
}

// setup cold-starts the serving tier from the prebuilt index: open and
// warm the server, or the two workers and the router's probe of them,
// each on its own loopback listener.
func (b *serveBench) setup() error {
	// Access lines are formatted as in production but go nowhere.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	scfg := server.Config{
		DefaultRef: b.fasta, DefaultIndex: b.dwi, Core: b.cfg,
		Shard: shard.Config{Shards: serveShards}, Logger: logger,
	}
	if !b.cluster {
		h, url, stop, err := startServer(scfg)
		if err != nil {
			return err
		}
		b.handler, b.url, b.shutdown = h, url, append(b.shutdown, stop)
		return nil
	}
	// Shard ownership hashes worker names only, so the roster can be
	// completed with URLs as the listeners come up.
	roster := []cluster.Worker{{Name: "w0"}, {Name: "w1"}}
	cmap, err := cluster.NewMap(roster, 2)
	if err != nil {
		return err
	}
	for i := range roster {
		name := roster[i].Name
		wcfg := scfg
		wcfg.Worker = server.WorkerConfig{Enabled: true, Name: name,
			AssignShards: func(n int) ([]int, error) { return cmap.OwnedBy(name, n) }}
		_, url, stop, err := startServer(wcfg)
		if err != nil {
			return err
		}
		roster[i].URL = url
		b.shutdown = append(b.shutdown, stop)
	}
	rt, err := cluster.New(cluster.Config{Workers: roster, Replication: 2, Logger: logger})
	if err != nil {
		return err
	}
	if err := rt.Probe(context.Background()); err != nil {
		return err
	}
	b.handler = rt.Handler()
	url, stop, err := listen(b.handler)
	if err != nil {
		return err
	}
	b.url, b.shutdown = url, append(b.shutdown, stop)
	return nil
}

func (b *serveBench) close() {
	// Last started, first stopped: the router before its workers.
	for i := len(b.shutdown) - 1; i >= 0; i-- {
		b.shutdown[i]()
	}
	b.shutdown = nil
}

// newRequest builds request i. The request id is fixed by the index,
// so a response to the same body is byte-identical on every run and on
// both serving paths.
func (b *serveBench) newRequest(i int, url string) *http.Request {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/map", bytes.NewReader(b.bodies[i]))
	if err != nil {
		panic(err) // the method and URL are fixed and valid
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "bench-"+strconv.Itoa(i))
	return req
}

// post sends request i over TCP and returns the whole response body.
func (b *serveBench) post(client *http.Client, i int) ([]byte, error) {
	resp, err := client.Do(b.newRequest(i, b.url))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (b *serveBench) timed() []opSample {
	b.responses = make([][]byte, len(b.bodies))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	return closedLoop(workers, len(b.bodies), func(i int) int {
		body, err := b.post(client, i)
		if err != nil {
			b.transport.Add(1)
			b.mu.Lock()
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
			b.mu.Unlock()
		}
		b.responses[i] = body
		return readsPerReq
	})
}

// respLine is one NDJSON response line; the records stay raw so they
// can be compared byte for byte.
type respLine struct {
	Read    string          `json:"read"`
	Mapped  bool            `json:"mapped"`
	Records json.RawMessage `json:"records"`
	Error   string          `json:"error"`
}

// parseResponse splits a response body into its lines and checks it
// answers request i: one line per read, in order, none an error line.
func (b *serveBench) parseResponse(i int, body []byte) ([]respLine, error) {
	var lines []respLine
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var l respLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("malformed line %d: %w", len(lines), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != readsPerReq {
		return nil, fmt.Errorf("%d lines for %d reads", len(lines), readsPerReq)
	}
	for k, l := range lines {
		want := b.reads[i*readsPerReq+k].Name
		if l.Read != want {
			return nil, fmt.Errorf("line %d answers read %q, want %q", k, l.Read, want)
		}
		if l.Error != "" {
			return nil, fmt.Errorf("read %q: error line: %s", l.Read, l.Error)
		}
	}
	return lines, nil
}

// placementOf reads a line's primary record back into reference
// coordinates.
func placementOf(l respLine) (placement, error) {
	var recs []sam.Record
	if err := json.Unmarshal(l.Records, &recs); err != nil {
		return placement{}, err
	}
	if len(recs) == 0 {
		return placement{}, fmt.Errorf("no records")
	}
	r := recs[0]
	if r.Flag&sam.FlagUnmapped != 0 {
		return placement{}, nil
	}
	span, err := cigarRefLen(r.Cigar)
	if err != nil {
		return placement{}, err
	}
	return placement{mapped: true, start: r.Pos, end: r.Pos + span, reverse: r.Flag&sam.FlagReverse != 0}, nil
}

// cigarRefLen is the number of reference bases a SAM CIGAR consumes.
func cigarRefLen(cigar string) (int, error) {
	total, run := 0, 0
	for i := 0; i < len(cigar); i++ {
		switch c := cigar[i]; {
		case c >= '0' && c <= '9':
			run = run*10 + int(c-'0')
		case c == 'M' || c == 'D':
			total += run
			run = 0
		case c == 'I' || c == 'S':
			run = 0
		default:
			return 0, fmt.Errorf("unexpected CIGAR operation %q in %q", c, cigar)
		}
	}
	return total, nil
}

// expectedRecords maps request i's reads in process and renders them
// the way both serving tiers must: server.RecordsFor, JSON-encoded.
func (b *serveBench) expectedRecords(m core.Mapper, ref *core.Reference, i int) ([][]byte, error) {
	reads := b.reads[i*readsPerReq : (i+1)*readsPerReq]
	seqs := make([]dna.Seq, len(reads))
	for k := range reads {
		seqs[k] = reads[k].Seq
	}
	res, err := m.Map(context.Background(), seqs, core.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(reads))
	for k, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		out[k], err = json.Marshal(server.RecordsFor(ref, reads[k].Name, reads[k].Seq, r.Alignments, false))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkResponse verifies one response structurally, against
// the in-process records when want is non-nil, and returns where its
// reads were placed.
func (b *serveBench) checkResponse(out *outcome, i int, body []byte, want [][]byte) []placement {
	got := make([]placement, readsPerReq)
	lines, err := b.parseResponse(i, body)
	if err != nil {
		out.problemf("request %d: %v", i, err)
		return got
	}
	for k, l := range lines {
		if want != nil && !bytes.Equal(bytes.TrimSpace(l.Records), want[k]) {
			out.problemf("read %s: served records differ from in-process server.RecordsFor", l.Read)
		}
		p, err := placementOf(l)
		if err != nil {
			out.problemf("read %s: %v", l.Read, err)
			continue
		}
		if p.mapped != l.Mapped {
			out.problemf("read %s: mapped=%v but the primary record says %v", l.Read, l.Mapped, p.mapped)
		}
		got[k] = p
	}
	return got
}

func (b *serveBench) verify(out *outcome) (metrics.Confusion, error) {
	out.attempted = len(b.bodies)
	out.failed = int(b.transport.Load())
	if b.firstErr != nil {
		out.problems = append(out.problems, b.firstErr.Error())
	}
	m, ref, err := core.Open(core.OpenConfig{Records: b.recs, Core: b.cfg})
	if err != nil {
		return metrics.Confusion{}, err
	}
	var got []placement
	for i, body := range b.responses {
		if body == nil {
			got = append(got, make([]placement, readsPerReq)...)
			continue // counted above as a transport failure
		}
		var want [][]byte
		if i < verifyReqs {
			if want, err = b.expectedRecords(m, ref, i); err != nil {
				return metrics.Confusion{}, err
			}
		}
		got = append(got, b.checkResponse(out, i, body, want)...)
	}
	return scorePlacements(b.reads, nil, got), nil
}

// way is one way of getting a request answered.
type way struct {
	layer, name string
	do          func(i int) error
}

// driveWays sends requests [0, n) one at a time, each through every
// way in turn before the next request, so that all ways see the same
// machine conditions. It returns each way's request times in ms,
// sorted, and records a span per call.
func driveWays(tr *tracer, n int, ways []way) ([][]float64, error) {
	ms := make([][]float64, len(ways))
	for i := 0; i < n; i++ {
		for w, way := range ways {
			sp := tr.begin(way.layer, way.name, -1, i)
			err := way.do(i)
			ms[w] = append(ms[w], float64(tr.end(sp, ""))/float64(time.Millisecond))
			if err != nil {
				return nil, fmt.Errorf("%s, request %d: %w", way.name, i, err)
			}
		}
	}
	for w := range ms {
		sort.Float64s(ms[w])
	}
	return ms, nil
}

func (b *serveBench) layers(o options, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	n := min(scaled(layerReqs, o.scale, 10), len(b.bodies))
	out.attempted = n

	info, err := os.Stat(b.dwi)
	if err != nil {
		return nil, err
	}
	m["indexio.write_s"] = b.writeS
	m["indexio.file_bytes"] = float64(info.Size())
	sp := tr.begin("indexio", "indexio.open", -1, 0)
	loaded, err := indexio.Open(b.dwi, b.cfg, b.spec)
	m["indexio.open_s"] = tr.end(sp, "").Seconds()
	if err != nil {
		return nil, err
	}
	defer loaded.File.Close()

	// The mapping layers under the server, on the same reads.
	seqs := make([]dna.Seq, n*readsPerReq)
	for i := range seqs {
		seqs[i] = b.reads[i].Seq
	}
	probe := mapProbe{ref: loaded.Mapper.Ref(), cfg: b.cfg, mapper: loaded.Mapper, seqs: seqs, pool: b.reads}
	if _, err := probeMapping(probe, tr, out); err != nil {
		return nil, err
	}

	// The same requests several ways, one client, one at a time. Each
	// way adds one layer to the one before, so the differences of the
	// medians are what the layers cost.
	want := make([][][]byte, n)
	compute := way{"core", "server.compute", func(i int) (err error) {
		want[i], err = b.expectedRecords(loaded.Mapper, loaded.Ref, i)
		return err
	}}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	overTCP := func(layer string) way {
		return way{layer, layer + ".loopback", func(i int) error {
			body, err := b.post(client, i)
			if err != nil {
				return err
			}
			b.checkResponse(out, i, body, want[i])
			return nil
		}}
	}
	before := obs.Default.Snapshot()

	if !b.cluster {
		// In process, then the handler called in memory, then over TCP.
		inMemory := way{"server", "server.in_memory", func(i int) error {
			rec := httptest.NewRecorder()
			b.handler.ServeHTTP(rec, b.newRequest(i, ""))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			b.checkResponse(out, i, rec.Body.Bytes(), want[i])
			return nil
		}}
		ms, err := driveWays(tr, n, []way{compute, inMemory, overTCP("server")})
		if err != nil {
			return nil, err
		}
		d := obs.Default.Snapshot().Sub(before)
		m["server.compute_p50_ms"] = percentile(ms[0], 50)
		m["server.self_p50_ms"] = percentile(ms[1], 50) - percentile(ms[0], 50)
		m["server.http_p50_ms"] = percentile(ms[2], 50) - percentile(ms[1], 50)
		m["server.req_p99_ms"] = percentile(ms[2], 99)
		m["server.batches"] = float64(d.Counters["server/batches"])
		m["server.batch_reads_mean"] = ratio(float64(d.Counters["server/batched_reads"]), float64(d.Counters["server/batches"]))
		m["server.shed"] = float64(d.Counters["server/shed_events"] + d.Counters["server/jobs_rejected"])
		return out, nil
	}

	// The router's hop: a request through router and workers, over
	// what the same scatter and merge cost in process.
	sm, ok := loaded.Mapper.(*shard.ScatterMapper)
	if !ok {
		return nil, fmt.Errorf("the sharded index opened as %T", loaded.Mapper)
	}
	ids := allShards(sm)
	inProcess := way{"shard", "cluster.scatter_in_process", func(i int) error {
		rs, err := sm.ScatterShards(context.Background(), seqs[i*readsPerReq:(i+1)*readsPerReq], ids, 1)
		if err != nil {
			return err
		}
		for k := range rs {
			if _, err := shard.MergeReadScatters(b.cfg.MaxCandidates, rs[k:k+1]); err != nil {
				return err
			}
		}
		return nil
	}}
	ms, err := driveWays(tr, n, []way{compute, inProcess, overTCP("cluster")})
	if err != nil {
		return nil, err
	}
	d := obs.Default.Snapshot().Sub(before)
	m["server.compute_p50_ms"] = percentile(ms[0], 50)
	m["cluster.hop_p50_ms"] = percentile(ms[2], 50) - percentile(ms[1], 50)
	m["cluster.subreqs"] = float64(d.Counters["cluster/scatter_subreqs"])
	m["cluster.hedge_fired"] = float64(d.Counters["cluster/hedge_fired"])
	m["cluster.hedge_wins"] = float64(d.Counters["cluster/hedge_wins"])
	m["cluster.failovers"] = float64(d.Counters["cluster/replica_failovers"])
	m["cluster.hedge_share"] = ratio(float64(d.Counters["cluster/hedge_fired"]), float64(d.Counters["cluster/scatter_subreqs"]))
	return out, nil
}
