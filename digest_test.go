package darwin_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"darwin/internal/cluster"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/server"
	"darwin/internal/shard"
)

// digestsPath holds one "name sha256" line per pinned output.
const digestsPath = "testdata/output_digests.txt"

// TestOutputDigests pins the bytes the tools emit: darwin's SAM for
// PacBio and ONT_1D reads on a monolithic and a 3-shard index, built
// from the FASTA and loaded from a `darwin-index build` file, the
// darwin-overlap TSV, the darwin-assemble contigs and one /v1/map
// NDJSON body from an in-process darwind and from an in-process router
// over two darwind workers, plus the run-report counters of the four
// FASTA-built darwin runs and of darwin-overlap; a 3-shard run's
// counters must be the monolithic run's plus shard/* lines. Refactors of the
// engines must leave every digest as it is; a change that moves one on
// purpose re-pins it and says why. A loaded index's SAM pins to its FASTA build's digest, and
// the router's body to darwind's. The scratch directory is replaced by a
// fixed token before hashing, so a path that leaks into an output does
// not make the digest depend on where the test ran.
func TestOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries")
	}
	dir := t.TempDir()
	genomesim := buildTool(t, dir, "genomesim")
	readsim := buildTool(t, dir, "readsim")
	darwin := buildTool(t, dir, "darwin")
	indexTool := buildTool(t, dir, "darwin-index")
	overlap := buildTool(t, dir, "darwin-overlap")
	assemble := buildTool(t, dir, "darwin-assemble")

	got := map[string]string{}
	digest := func(name string, data []byte) {
		sum := sha256.Sum256(bytes.ReplaceAll(data, []byte(dir), []byte("$DIR")))
		got[name] = hex.EncodeToString(sum[:])
	}
	digestFile := func(name, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		digest(name, data)
	}

	refPath := filepath.Join(dir, "ref.fa")
	runTool(t, genomesim, "-len", "40000", "-seed", "21", "-out", refPath)
	engine := []string{"-k", "11", "-n", "600", "-h", "20"}
	shardCounts := []string{"0", "3"}
	for _, shards := range shardCounts {
		runTool(t, indexTool, append([]string{"build", "-ref", refPath, "-shards", shards,
			"-out", filepath.Join(dir, "ref-"+shards+".dwi")}, engine...)...)
	}
	for _, profile := range []string{"pacbio", "ont1d"} {
		counters := map[string][]byte{} // by shard count
		reads := filepath.Join(dir, profile+".fq")
		runTool(t, readsim, "-ref", refPath, "-profile", profile, "-n", "12",
			"-len", "2000", "-seed", "22", "-out", reads)
		for _, shards := range shardCounts {
			report := filepath.Join(dir, profile+"-"+shards+".json")
			for _, src := range []struct {
				suffix string
				flags  []string
			}{
				{"", []string{"-ref", refPath, "-no-sidecar", "-report", report}},
				{"/index", []string{"-index", filepath.Join(dir, "ref-"+shards+".dwi")}},
			} {
				out := filepath.Join(dir, profile+"-"+shards+".sam")
				runTool(t, darwin, append(append(src.flags, "-reads", reads, "-shards", shards, "-out", out), engine...)...)
				digestFile(fmt.Sprintf("darwin/%s/shards=%s%s", profile, shards, src.suffix), out)
			}
			counters[shards] = reportCounters(t, report)
			digest(fmt.Sprintf("darwin/%s/shards=%s/counters", profile, shards), counters[shards])
		}
		// The sharded run maps on one whole-reference table with one
		// D-SOFT pass per strand, the monolith's, so it does the same
		// work: its counters are the monolith's plus the shard/* set's.
		if sharded := withoutShardCounters(counters["3"]); !bytes.Equal(sharded, counters["0"]) {
			t.Errorf("darwin/%s: shards=3 counters without shard/* differ from shards=0:\n%s\nvs\n%s", profile, sharded, counters["0"])
		}
	}

	ovReads := filepath.Join(dir, "ovreads.fq")
	runTool(t, readsim, "-ref", refPath, "-profile", "pacbio", "-n", "60",
		"-len", "2000", "-seed", "23", "-out", ovReads)
	denovo := []string{"-reads", ovReads, "-k", "11", "-n", "500", "-h", "20",
		"-stride", "3", "-min-overlap", "600"}
	ovPath := filepath.Join(dir, "ov.tsv")
	ovReport := filepath.Join(dir, "ov.json")
	runTool(t, overlap, append(denovo, "-out", ovPath, "-report", ovReport)...)
	digestFile("darwin-overlap", ovPath)
	digest("darwin-overlap/counters", reportCounters(t, ovReport))
	asmPath := filepath.Join(dir, "contigs.fa")
	runTool(t, assemble, append(denovo, "-polish", "1", "-out", asmPath)...)
	digestFile("darwin-assemble", asmPath)

	mapReq := mapRequest(t, filepath.Join(dir, "pacbio.fq"))
	digest("darwind/v1/map", mapBody(t, darwind(t, refPath, core.ShardSpec{}, server.WorkerConfig{}), mapReq))
	digest("darwin-router/v1/map", mapBody(t, router(t, refPath), mapReq))

	want := readDigests(t)
	for _, name := range sortedKeys(got) {
		if want[name] != got[name] {
			t.Errorf("%s: sha256 %s, pinned %q", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer produced", name)
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, name := range sortedKeys(got) {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		t.Logf("digests of this tree:\n%s", b.String())
	}
}

// kernelTierCounters split GACT's tiles and cells by kernel path. The
// split differs between the vector and the purego build (a vector fill
// guesses a band where the scalar build runs a Myers pass), so the
// counter digests leave it out.
var kernelTierCounters = map[string]bool{
	"gact/tile_bitvector":  true,
	"gact/tile_fallback":   true,
	"gact/tile_lut":        true,
	"gact/cells_bitvector": true,
	"gact/cells_lut":       true,
}

// reportCounters renders a run report's nonzero counters, one
// "name value" line each in name order, without the kernel-tier split.
// Timers, gauges and histograms vary from run to run and are left out;
// so are zero counters, so that a counter added elsewhere in the
// process does not move a digest.
func reportCounters(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := make([]string, 0, len(rep.Counters))
	for name, v := range rep.Counters {
		if v != 0 && !kernelTierCounters[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, rep.Counters[name])
	}
	return b.Bytes()
}

// withoutShardCounters drops the shard/* lines of a reportCounters
// rendering.
func withoutShardCounters(rendered []byte) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(rendered, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("shard/")) {
			b.Write(line)
		}
	}
	return b.Bytes()
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// darwind serves refPath from an in-process darwind with the digest's
// engine flags, sharded by spec and in worker mode if w is enabled.
func darwind(t *testing.T, refPath string, spec core.ShardSpec, w server.WorkerConfig) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{
		DefaultRef:     refPath,
		DisableSidecar: true,
		Core:           core.DefaultConfig(11, 600, 20),
		Shard:          spec,
		Worker:         w,
		Logger:         quiet,
	})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// router serves refPath through an in-process darwin-router over two
// 3-shard darwind workers, each shard on both (replication 2).
func router(t *testing.T, refPath string) *httptest.Server {
	t.Helper()
	roster := []cluster.Worker{{Name: "w0"}, {Name: "w1"}}
	cmap, err := cluster.NewMap(roster, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range roster {
		name := roster[i].Name
		w := server.WorkerConfig{Enabled: true, Name: name,
			AssignShards: func(n int) ([]int, error) { return cmap.OwnedBy(name, n) }}
		roster[i].URL = darwind(t, refPath, shard.Config{Shards: 3}, w).URL
	}
	rt, err := cluster.New(cluster.Config{Workers: roster, Replication: 2, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// mapRequest is the /v1/map body carrying every read in readsPath,
// all alignments per read.
func mapRequest(t *testing.T, readsPath string) []byte {
	t.Helper()
	recs, err := dna.ReadFile(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	req := server.MapRequest{All: true}
	for _, rec := range recs {
		req.Reads = append(req.Reads, server.ReadInput{Name: rec.Name, Seq: rec.Seq})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// mapBody posts raw to ts's /v1/map under a fixed request ID and
// returns the NDJSON body.
func mapBody(t *testing.T, ts *httptest.Server, raw []byte) []byte {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Request-ID", "digest")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/map: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestsPath)
	if err != nil {
		t.Errorf("reading pinned digests: %v", err)
		return nil
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			out[name] = sum
		}
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
