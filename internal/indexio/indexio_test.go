package indexio

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/shard"
)

func testRecords(seed int64, n int) []dna.Record {
	rng := rand.New(rand.NewSource(seed))
	// Two sequences with a repeated segment so the mask is non-empty
	// and multi-sequence metadata roundtrips.
	seg := dna.Random(rng, 150, 0.5)
	a := make(dna.Seq, 0, n*2/3)
	for len(a) < n/3 {
		a = append(a, seg...)
	}
	a = append(a, dna.Random(rng, n*2/3-len(a), 0.45)...)
	b := dna.Random(rng, n/3, 0.5)
	return []dna.Record{{Name: "chr1", Seq: a}, {Name: "chr2", Seq: b}}
}

func testConfig(k int) core.Config {
	cfg := core.DefaultConfig(k, 400, 20)
	return cfg
}

// writeIndex builds and writes an index to a temp path.
func writeIndex(t *testing.T, recs []dna.Record, cfg core.Config, spec core.ShardSpec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.dwi")
	if _, err := WriteFile(path, recs, cfg, spec); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRefFASTA writes recs to dir/ref.fa and returns the path.
func writeRefFASTA(t *testing.T, dir string, recs []dna.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ref.fa")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBitIdentityMonolithic is the tentpole invariant: a table mapped
// through build→save→load is bit-identical to a freshly built one —
// same arrays, and the same alignments for every read.
func TestBitIdentityMonolithic(t *testing.T) {
	for _, k := range []int{8, 11, 13} { // 13 exercises the sparse representation
		for _, noMask := range []bool{false, true} {
			recs := testRecords(51, 90_000)
			cfg := testConfig(k)
			cfg.TableOptions.NoMask = noMask
			path := writeIndex(t, recs, cfg, core.ShardSpec{})

			l, err := Open(path, cfg, core.ShardSpec{})
			if err != nil {
				t.Fatalf("k=%d noMask=%v: %v", k, noMask, err)
			}
			defer l.File.Close()
			freshEng, freshRef, err := core.NewMulti(recs, cfg)
			if err != nil {
				t.Fatal(err)
			}

			loadedEng, ok := l.Mapper.(*core.Darwin)
			if !ok {
				t.Fatalf("k=%d noMask=%v: loaded mapper is %T, want *core.Darwin", k, noMask, l.Mapper)
			}
			if !reflect.DeepEqual(loadedEng.Table().Parts(), freshEng.Table().Parts()) {
				t.Errorf("k=%d noMask=%v: loaded table differs from freshly built (bit-identity violated)", k, noMask)
			}
			if !reflect.DeepEqual([]byte(l.Ref.Seq()), []byte(freshRef.Seq())) {
				t.Errorf("k=%d noMask=%v: loaded reference bytes differ", k, noMask)
			}
			for i := 0; i < l.Ref.NumSeqs(); i++ {
				if l.Ref.Name(i) != freshRef.Name(i) || l.Ref.Len(i) != freshRef.Len(i) {
					t.Errorf("k=%d noMask=%v: sequence %d metadata differs", k, noMask, i)
				}
			}

			// And the observable contract: identical alignments.
			reads := sampleReads(recs, 6, 800, 52)
			for ri, rd := range reads {
				a, _ := loadedEng.MapRead(rd)
				b, _ := freshEng.MapRead(rd)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("k=%d noMask=%v read %d: alignments differ between loaded and built", k, noMask, ri)
				}
			}
		}
	}
}

// TestBitIdentitySharded runs the same invariant through the sharded
// path for every shard-count shape the partitioner produces.
func TestBitIdentitySharded(t *testing.T) {
	recs := testRecords(53, 120_000)
	cfg := testConfig(11)
	for _, shards := range []int{1, 2, 4, 7} {
		spec := core.ShardSpec{Shards: shards}
		path := writeIndex(t, recs, cfg, spec)

		l, err := Open(path, cfg, spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		defer l.File.Close()
		loaded, ok := l.Mapper.(*shard.ScatterMapper)
		if !ok {
			t.Fatalf("shards=%d: loaded mapper is %T, want *shard.ScatterMapper", shards, l.Mapper)
		}
		ref := concatRef(t, recs, cfg)
		fresh, err := shard.New(ref, cfg, shard.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}

		lg, fg := loaded.Set().Geometry(), fresh.Set().Geometry()
		if !reflect.DeepEqual(lg.Parts, fg.Parts) {
			t.Fatalf("shards=%d: loaded geometry %+v != fresh %+v", shards, lg.Parts, fg.Parts)
		}
		for i := range lg.Parts {
			lt, err := loaded.Set().Acquire(i)
			if err != nil {
				t.Fatalf("shards=%d shard %d: %v", shards, i, err)
			}
			ft, err := fresh.Set().Acquire(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lt.Parts(), ft.Parts()) {
				t.Errorf("shards=%d shard %d: loaded table differs from freshly built", shards, i)
			}
		}

		reads := sampleReads(recs, 6, 800, 54)
		a, err := loaded.Map(context.Background(), reads, core.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Map(context.Background(), reads, core.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for ri := range reads {
			if !reflect.DeepEqual(a[ri].Alignments, b[ri].Alignments) {
				t.Errorf("shards=%d read %d: alignments differ between loaded and built", shards, ri)
			}
		}
	}
}

// TestShardedFileZeroSpecAdoptsGeometry: a sharded index opened with a
// zero spec serves through the file's own partition.
func TestShardedFileZeroSpecAdoptsGeometry(t *testing.T) {
	recs := testRecords(55, 80_000)
	cfg := testConfig(11)
	path := writeIndex(t, recs, cfg, core.ShardSpec{Shards: 3})
	l, err := Open(path, cfg, core.ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.File.Close()
	sm, ok := l.Mapper.(*shard.ScatterMapper)
	if !ok {
		t.Fatalf("mapper is %T, want *shard.ScatterMapper", l.Mapper)
	}
	if got := len(sm.Set().Geometry().Parts); got != 3 {
		t.Errorf("adopted %d shards from file, want 3", got)
	}
}

// TestMismatchRejections: every drift in a parameter that shapes the
// table is rejected with the stable geometry_mismatch code, never
// silently served.
func TestMismatchRejections(t *testing.T) {
	recs := testRecords(56, 60_000)
	cfg := testConfig(11)
	mono := writeIndex(t, recs, cfg, core.ShardSpec{})

	cases := []struct {
		name string
		path string
		cfg  core.Config
		spec core.ShardSpec
	}{
		{"wrong_k", mono, testConfig(12), core.ShardSpec{}},
		{"wrong_masking", mono, func() core.Config {
			c := testConfig(11)
			c.TableOptions.NoMask = true
			return c
		}(), core.ShardSpec{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.path, tc.cfg, tc.spec)
			if err == nil {
				t.Fatal("mismatched open succeeded")
			}
			if code := indexfile.ErrCode(err); code != indexfile.CodeGeometryMismatch {
				t.Errorf("code %q (err %v), want %q", code, err, indexfile.CodeGeometryMismatch)
			}
		})
	}
}

// TestShardCountIsADefault: a file holds one table whatever shard count
// it records, so any requested count opens it — a monolithic file
// sharded, a sharded one at another count — partitioned as a FASTA
// build under the same spec would be, and mapping exactly as the
// monolith does.
func TestShardCountIsADefault(t *testing.T) {
	recs := testRecords(56, 60_000)
	cfg := testConfig(11)
	mono := writeIndex(t, recs, cfg, core.ShardSpec{})
	sharded := writeIndex(t, recs, cfg, core.ShardSpec{Shards: 4})
	fresh, _, err := core.NewMulti(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := sampleReads(recs, 4, 800, 57)
	want, err := fresh.Map(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		path string
		spec core.ShardSpec
	}{
		{"mono_file_sharded_spec", mono, core.ShardSpec{Shards: 2}},
		{"sharded_file_other_count", sharded, core.ShardSpec{Shards: 2}},
		{"sharded_file_budget", sharded, core.ShardSpec{Shards: 3, MaxResidentBytes: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(tc.path, cfg, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer l.File.Close()
			wantGeo, err := shard.Partition(len(l.Ref.Seq()), tc.spec.Shards, shard.MinOverlap(cfg), cfg.BinSize)
			if err != nil {
				t.Fatal(err)
			}
			if l.Set == nil || !reflect.DeepEqual(l.Set.Geometry(), wantGeo) {
				t.Fatalf("opened with set %v, want the %d-shard partition of the opening engine", l.Set, tc.spec.Shards)
			}
			got, err := l.Mapper.Map(context.Background(), reads)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Err != nil || !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
					t.Errorf("read %d: result differs from a freshly built engine (err %v)", i, got[i].Err)
				}
			}
		})
	}
}

// TestOpenSource drives the one front door over every kind of source,
// monolithic and sharded: whatever the source, the mapper must align
// exactly as a freshly built monolithic engine does, Set is non-nil
// exactly when sharded, an index file is used exactly when a usable
// one resolves, and only a discovered sidecar may be passed over.
func TestOpenSource(t *testing.T) {
	recs := testRecords(57, 50_000)
	cfg := testConfig(11)
	fresh, _, err := core.NewMulti(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := sampleReads(recs, 4, 800, 58)
	want, err := fresh.Map(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}

	writeFASTA := func(t *testing.T, dir string) string { return writeRefFASTA(t, dir, recs) }
	writeDWI := func(t *testing.T, path string, cfg core.Config, spec core.ShardSpec, corrupt bool) {
		t.Helper()
		if _, err := WriteFile(path, recs, cfg, spec); err != nil {
			t.Fatal(err)
		}
		if !corrupt {
			return
		}
		// Flip a payload byte: the header still reads, the section
		// checksum does not.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	geometries := []struct {
		name string
		spec core.ShardSpec
		// otherCfg/otherSpec describe an index this geometry must refuse.
		otherCfg  core.Config
		otherSpec core.ShardSpec
	}{
		{"monolith", core.ShardSpec{}, testConfig(12), core.ShardSpec{}},
		{"4shards", core.ShardSpec{Shards: 4}, testConfig(12), core.ShardSpec{Shards: 4}},
	}
	for _, g := range geometries {
		sources := []struct {
			name         string
			src          func(t *testing.T, dir string) Source
			fromFile     bool
			fallbackCode string
			errCode      string
		}{
			{name: "records", src: func(t *testing.T, dir string) Source {
				return Source{Records: recs}
			}},
			{name: "fasta_path", src: func(t *testing.T, dir string) Source {
				return Source{Path: writeFASTA(t, dir), Sidecar: true}
			}},
			{name: "explicit_dwi", fromFile: true, src: func(t *testing.T, dir string) Source {
				// No Path at all: an explicit index needs no FASTA.
				writeDWI(t, filepath.Join(dir, "x.dwi"), cfg, g.spec, false)
				return Source{Index: filepath.Join(dir, "x.dwi")}
			}},
			{name: "sidecar", fromFile: true, src: func(t *testing.T, dir string) Source {
				// The FASTA is unparseable: a usable sidecar must keep it unopened.
				ref := filepath.Join(dir, "ref.fa")
				if err := os.WriteFile(ref, []byte("not a FASTA\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				writeDWI(t, indexfile.SidecarPath(ref), cfg, g.spec, false)
				return Source{Path: ref, Sidecar: true}
			}},
			{name: "sidecar_ignored", src: func(t *testing.T, dir string) Source {
				ref := writeFASTA(t, dir)
				writeDWI(t, indexfile.SidecarPath(ref), cfg, g.spec, true)
				return Source{Path: ref}
			}},
			{name: "corrupt_sidecar", fallbackCode: indexfile.CodeChecksumMismatch, src: func(t *testing.T, dir string) Source {
				ref := writeFASTA(t, dir)
				writeDWI(t, indexfile.SidecarPath(ref), cfg, g.spec, true)
				return Source{Path: ref, Sidecar: true}
			}},
			{name: "mismatched_sidecar", fallbackCode: indexfile.CodeGeometryMismatch, src: func(t *testing.T, dir string) Source {
				ref := writeFASTA(t, dir)
				writeDWI(t, indexfile.SidecarPath(ref), g.otherCfg, g.otherSpec, false)
				return Source{Path: ref, Sidecar: true}
			}},
			{name: "corrupt_explicit_dwi", errCode: indexfile.CodeChecksumMismatch, src: func(t *testing.T, dir string) Source {
				// The FASTA is fine, but an operator-named index never falls back.
				writeDWI(t, filepath.Join(dir, "x.dwi"), cfg, g.spec, true)
				return Source{Path: writeFASTA(t, dir), Index: filepath.Join(dir, "x.dwi"), Sidecar: true}
			}},
			{name: "empty_records", errCode: "-", src: func(t *testing.T, dir string) Source {
				return Source{Records: []dna.Record{}}
			}},
		}
		for _, sc := range sources {
			t.Run(g.name+"/"+sc.name, func(t *testing.T) {
				l, err := OpenSource(sc.src(t, t.TempDir()), cfg, g.spec)
				if sc.errCode != "" {
					if err == nil {
						t.Fatal("open succeeded, want an error")
					}
					if sc.errCode != "-" && indexfile.ErrCode(err) != sc.errCode {
						t.Fatalf("error %v has code %q, want %q", err, indexfile.ErrCode(err), sc.errCode)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if l.File != nil {
					defer l.File.Close()
				}
				if (l.File != nil) != sc.fromFile {
					t.Errorf("File = %v, want from file: %v", l.File, sc.fromFile)
				}
				if got := indexfile.ErrCode(l.Fallback); got != sc.fallbackCode {
					t.Errorf("Fallback = %v (code %q), want code %q", l.Fallback, got, sc.fallbackCode)
				}
				if sharded := g.spec.Enabled(); (l.Set != nil) != sharded {
					t.Errorf("Set = %v, want non-nil exactly when sharded (%v)", l.Set, sharded)
				}
				switch m := l.Mapper.(type) {
				case *core.Darwin:
					if g.spec.Enabled() {
						t.Error("sharded spec selected the monolithic engine")
					}
				case *shard.ScatterMapper:
					if m.Set() != l.Set || len(l.Set.Geometry().Parts) != g.spec.Shards {
						t.Errorf("sharded engine over %d parts, want %d over Loaded.Set", len(m.Set().Geometry().Parts), g.spec.Shards)
					}
				}
				if l.Ref.NumSeqs() != len(recs) {
					t.Errorf("reference has %d sequences, want %d", l.Ref.NumSeqs(), len(recs))
				}
				got, err := l.Mapper.Map(context.Background(), reads)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i].Err != nil || !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
						t.Errorf("read %d: result differs from a freshly built engine (err %v)", i, got[i].Err)
					}
				}
			})
		}
	}
}

// TestShardBudgetNeedsShardedEngine: a resident shard budget is refused
// wherever the source resolves to the monolithic engine, which has no
// shard tables to evict, and kept when a sharded index file supplies
// the geometry under a zero spec.
func TestShardBudgetNeedsShardedEngine(t *testing.T) {
	recs := testRecords(59, 50_000)
	cfg := testConfig(11)
	mono := writeIndex(t, recs, cfg, core.ShardSpec{})
	sharded := writeIndex(t, recs, cfg, core.ShardSpec{Shards: 3})
	fasta := writeRefFASTA(t, t.TempDir(), recs)
	if _, err := WriteFile(indexfile.SidecarPath(fasta), recs, cfg, core.ShardSpec{}); err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	cases := []struct {
		name    string
		src     Source
		spec    core.ShardSpec
		refused bool
	}{
		{"records", Source{Records: recs}, core.ShardSpec{MaxResidentBytes: budget}, true},
		{"fasta_no_sidecar", Source{Path: fasta}, core.ShardSpec{MaxResidentBytes: budget}, true},
		{"monolithic_sidecar", Source{Path: fasta, Sidecar: true}, core.ShardSpec{MaxResidentBytes: budget}, true},
		{"monolithic_dwi", Source{Index: mono}, core.ShardSpec{MaxResidentBytes: budget}, true},
		{"sharded_dwi_zero_spec", Source{Index: sharded}, core.ShardSpec{MaxResidentBytes: budget}, false},
		{"records_sharded", Source{Records: recs}, core.ShardSpec{Shards: 2, MaxResidentBytes: budget}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := OpenSource(tc.src, cfg, tc.spec)
			if tc.refused {
				if err == nil {
					if l.File != nil {
						l.File.Close()
					}
					t.Fatal("a budget on the monolithic engine was accepted")
				}
				if !strings.Contains(err.Error(), "-shards") {
					t.Errorf("error %q does not name -shards", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if l.File != nil {
				defer l.File.Close()
			}
			if l.Set == nil {
				t.Fatal("budgeted source opened the monolithic engine")
			}
			if st, _ := l.Set.Snapshot(); st.BudgetBytes != budget {
				t.Errorf("budget %d, want %d", st.BudgetBytes, budget)
			}
		})
	}
}

// TestNarrowMarginFile: a file written under a smaller N once recorded
// a shard margin below shard.MinOverlap of an engine opening it at a
// larger N, and adopting that partition dropped candidates straddling a
// core boundary. A file now records no margin: the partition comes from
// the opening engine, so the same file opens under a zero spec and maps
// exactly as a monolith at the opening parameters.
func TestNarrowMarginFile(t *testing.T) {
	recs := testRecords(60, 60_000)
	written := core.DefaultConfig(11, 50, 20)
	cfg := core.DefaultConfig(11, 750, 300)
	path := writeIndex(t, recs, written, core.ShardSpec{Shards: 12})
	l, err := Open(path, cfg, core.ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.File.Close()
	if got, need := l.Set.Geometry().Overlap, shard.MinOverlap(cfg); got < need {
		t.Fatalf("opened with a %d bp margin, below the %d bp the opening engine needs", got, need)
	}
	fresh, _, err := core.NewMulti(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := sampleReads(recs, 6, 1500, 62)
	want, err := fresh.Map(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Mapper.Map(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
			t.Errorf("read %d: result differs from a monolith at the opening parameters (err %v)", i, got[i].Err)
		}
	}
}

// sampleReads slices exact substrings out of the reference records —
// deterministic queries that are guaranteed to map.
func sampleReads(recs []dna.Record, n, readLen int, seed int64) []dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	var out []dna.Seq
	for len(out) < n {
		rec := recs[rng.Intn(len(recs))]
		if len(rec.Seq) <= readLen {
			continue
		}
		p := rng.Intn(len(rec.Seq) - readLen)
		out = append(out, rec.Seq[p:p+readLen])
	}
	return out
}

// concatRef reproduces core.NewReference's concatenation so the fresh
// sharded engine sees the same global coordinates as the index build.
func concatRef(t *testing.T, recs []dna.Record, cfg core.Config) dna.Seq {
	t.Helper()
	ref, err := core.NewReference(recs, cfg.BinSize)
	if err != nil {
		t.Fatal(err)
	}
	return ref.Seq()
}
