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

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/server"
)

// digestsPath holds one "name sha256" line per pinned output.
const digestsPath = "testdata/output_digests.txt"

// TestOutputDigests pins the bytes the tools emit: darwin's SAM for
// PacBio and ONT_1D reads on a monolithic and a 3-shard index, the
// darwin-overlap TSV, the darwin-assemble contigs and one /v1/map
// NDJSON body from an in-process darwind. Refactors of the engines must
// leave every digest as it is; a change that moves one on purpose
// re-pins it and says why. The scratch directory is replaced by a
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
	for _, profile := range []string{"pacbio", "ont1d"} {
		reads := filepath.Join(dir, profile+".fq")
		runTool(t, readsim, "-ref", refPath, "-profile", profile, "-n", "12",
			"-len", "2000", "-seed", "22", "-out", reads)
		for _, shards := range []string{"0", "3"} {
			out := filepath.Join(dir, profile+"-"+shards+".sam")
			args := append([]string{"-ref", refPath, "-reads", reads, "-no-sidecar",
				"-shards", shards, "-out", out}, engine...)
			runTool(t, darwin, args...)
			digestFile(fmt.Sprintf("darwin/%s/shards=%s", profile, shards), out)
		}
	}

	ovReads := filepath.Join(dir, "ovreads.fq")
	runTool(t, readsim, "-ref", refPath, "-profile", "pacbio", "-n", "60",
		"-len", "2000", "-seed", "23", "-out", ovReads)
	denovo := []string{"-reads", ovReads, "-k", "11", "-n", "500", "-h", "20",
		"-stride", "3", "-min-overlap", "600"}
	ovPath := filepath.Join(dir, "ov.tsv")
	runTool(t, overlap, append(denovo, "-out", ovPath)...)
	digestFile("darwin-overlap", ovPath)
	asmPath := filepath.Join(dir, "contigs.fa")
	runTool(t, assemble, append(denovo, "-polish", "1", "-out", asmPath)...)
	digestFile("darwin-assemble", asmPath)

	digest("darwind/v1/map", darwindMapBody(t, refPath, filepath.Join(dir, "pacbio.fq")))

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

// darwindMapBody serves refPath from an in-process darwind and returns
// the NDJSON body of one /v1/map request carrying the reads in
// readsPath, under a fixed request ID.
func darwindMapBody(t *testing.T, refPath, readsPath string) []byte {
	t.Helper()
	s := server.New(server.Config{
		DefaultRef:     refPath,
		DisableSidecar: true,
		Core:           core.DefaultConfig(11, 600, 20),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
