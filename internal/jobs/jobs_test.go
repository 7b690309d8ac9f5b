package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

// testRecords simulates a small read set the assemble pipeline
// finishes in a few seconds but still crosses several checkpoint
// boundaries.
func testRecords(t *testing.T, n int) []dna.Record {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: 15000, GC: 0.45, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, n, readsim.Config{Profile: readsim.PacBio, MeanLen: 1800, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]dna.Record, len(reads))
	for i, r := range reads {
		recs[i] = dna.Record{Name: r.Name, Seq: r.Seq}
	}
	return recs
}

func testParams() Params {
	return Params{MinOverlap: 1000, PolishRounds: 0}
}

func newTestManager(t *testing.T, dir string, ckptEvery int) *Manager {
	t.Helper()
	m, err := New(Config{Dir: dir, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls until the job reaches a terminal state or the
// deadline passes.
func waitState(t *testing.T, m *Manager, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s did not finish: state %s, stages %v", id, st.State, st.Stages)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 0)
	defer m.Drain(context.Background())
	recs := []dna.Record{{Name: "r0", Seq: dna.Seq("ACGTACGTACGT")}}
	if _, err := m.Submit("bogus", recs, testParams()); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := m.Submit(KindAssemble, nil, testParams()); err == nil {
		t.Error("empty read set accepted")
	}
	for name, bad := range map[string]func(*Params){
		"min_overlap 0":    func(p *Params) { p.MinOverlap = 0 },
		"min_overlap -1":   func(p *Params) { p.MinOverlap = -1 },
		"polish_rounds -1": func(p *Params) { p.PolishRounds = -1 },
		"min_contig -1":    func(p *Params) { p.MinContig = -1 },
	} {
		p := testParams()
		bad(&p)
		if _, err := m.Submit(KindAssemble, recs, p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if len(m.List()) != 0 {
		t.Errorf("rejected submissions left %d jobs", len(m.List()))
	}
	if _, err := m.Get("jmissing"); err != ErrNotFound {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
}

// TestJobLifecycleAssemble: submit → run → done, with per-stage
// progress, a result file, and summary metadata.
func TestJobLifecycleAssemble(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 8)
	defer m.Drain(context.Background())
	recs := testRecords(t, 30)
	st, err := m.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending && st.State != StateRunning {
		t.Errorf("initial state = %s", st.State)
	}
	fin := waitState(t, m, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Contigs == 0 || fin.Result.N50 == 0 {
		t.Errorf("result meta = %+v", fin.Result)
	}
	if p := fin.Stages["overlap"]; p.Done != len(recs) || p.Total != len(recs) {
		t.Errorf("overlap progress = %+v, want %d/%d", p, len(recs), len(recs))
	}
	if fin.Checkpoints == 0 {
		t.Error("no checkpoints recorded")
	}
	path, ctype, err := m.ResultFile(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "text/x-fasta" {
		t.Errorf("content type = %q", ctype)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(">contig_")) {
		t.Errorf("result does not look like contig FASTA: %.40q", data)
	}
}

// TestJobLifecycleOverlap: the overlap kind streams NDJSON.
func TestJobLifecycleOverlap(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 0)
	defer m.Drain(context.Background())
	st, err := m.Submit(KindOverlap, testRecords(t, 20), testParams())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Overlaps == 0 {
		t.Errorf("result meta = %+v", fin.Result)
	}
	path, ctype, err := m.ResultFile(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "application/x-ndjson" {
		t.Errorf("content type = %q", ctype)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"target":`)) {
		t.Errorf("result does not look like overlap NDJSON: %.40q", data)
	}
}

// TestJobCancelFreesSlot: cancelling a running job must release its
// executor slot so a queued job proceeds, and the canceled state must
// persist. Goroutine counts return to baseline after drain.
func TestJobCancelFreesSlot(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := newTestManager(t, t.TempDir(), 0)
	recs := testRecords(t, 30)

	a, err := m.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Concurrency defaults to 1: b queues behind a. Cancel a while it
	// holds the slot.
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	stA := waitState(t, m, a.ID, time.Minute)
	if stA.State != StateCanceled {
		t.Fatalf("canceled job state = %s", stA.State)
	}
	// Canceling again is a no-op on a terminal job.
	again, err := m.Cancel(a.ID)
	if err != nil || again.State != StateCanceled {
		t.Errorf("re-cancel = %+v, %v", again.State, err)
	}
	// b must acquire the freed slot and complete.
	stB := waitState(t, m, b.ID, 2*time.Minute)
	if stB.State != StateDone {
		t.Fatalf("queued job state = %s (error %q)", stB.State, stB.Error)
	}
	// The canceled state is the persisted commit point.
	onDisk, err := readStatus(filepath.Join(m.dirOf(a.ID), "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateCanceled {
		t.Errorf("persisted state = %s, want canceled", onDisk.State)
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// All executor goroutines must be gone after drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
}

// TestJobDrainResume is the kill-and-resume property at the manager
// level: drain mid-overlap, recover in a fresh manager over the same
// directory, and the resumed job's contigs are byte-identical to an
// uninterrupted run's.
func TestJobDrainResume(t *testing.T) {
	recs := testRecords(t, 30)

	// Reference: uninterrupted run.
	refDir := t.TempDir()
	ref := newTestManager(t, refDir, 4)
	refSt, err := ref.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	refFin := waitState(t, ref, refSt.ID, 2*time.Minute)
	if refFin.State != StateDone {
		t.Fatalf("reference run: %s (%s)", refFin.State, refFin.Error)
	}
	refPath, _, err := ref.ResultFile(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	refContigs, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref.Drain(context.Background())

	// Interrupted run: drain once a checkpoint lands mid-overlap.
	dir := t.TempDir()
	m1 := newTestManager(t, dir, 4)
	st, err := m1.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := m1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		p := cur.Stages["overlap"]
		if cur.Checkpoints > 0 && p.Done > 0 && p.Done < p.Total {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before drain could interrupt it (state %s); lower read count margin", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mid-overlap checkpoint observed: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drain leaves the persisted state non-terminal — that is the
	// recovery contract.
	onDisk, err := readStatus(filepath.Join(m1.dirOf(st.ID), "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Terminal() {
		t.Fatalf("drained job persisted terminal state %s", onDisk.State)
	}

	// Fresh process: recover and finish.
	m2 := newTestManager(t, dir, 4)
	defer m2.Drain(context.Background())
	restarted, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restarted != 1 {
		t.Fatalf("restarted = %d, want 1", restarted)
	}
	fin := waitState(t, m2, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
	if !fin.Resumed || fin.ResumeRead == 0 {
		t.Errorf("resume not visible in status: resumed=%v resume_read=%d", fin.Resumed, fin.ResumeRead)
	}
	path, _, err := m2.ResultFile(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	contigs, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(contigs, refContigs) {
		t.Error("resumed contigs differ from uninterrupted run")
	}
}

// TestRecoverCorruptCheckpoint: a flipped byte in the checkpoint must
// fail the job with the stable checkpoint_corrupt code instead of
// silently recomputing.
func TestRecoverCorruptCheckpoint(t *testing.T) {
	recs := testRecords(t, 30)
	dir := t.TempDir()
	m1 := newTestManager(t, dir, 4)
	st, err := m1.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := m1.Get(st.ID)
		if cur.Checkpoints > 0 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no checkpoint before job resolved: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, st.ID, "checkpoint.dwc")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, 4)
	defer m2.Drain(context.Background())
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	fin, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if fin.ErrorCode != "checkpoint_corrupt" {
		t.Errorf("error code = %q, want checkpoint_corrupt", fin.ErrorCode)
	}
}

// TestRecoverSkipsTerminalJobs: terminal jobs are re-registered for
// status queries but never restarted.
func TestRecoverSkipsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, 0)
	st, err := m1.Submit(KindOverlap, testRecords(t, 15), testParams())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m1, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("state = %s", fin.State)
	}
	m1.Drain(context.Background())

	m2 := newTestManager(t, dir, 0)
	defer m2.Drain(context.Background())
	restarted, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restarted != 0 {
		t.Errorf("restarted = %d, want 0", restarted)
	}
	got, err := m2.Get(st.ID)
	if err != nil || got.State != StateDone {
		t.Errorf("recovered terminal job = %+v, %v", got.State, err)
	}
	// Its result remains servable.
	if _, _, err := m2.ResultFile(st.ID); err != nil {
		t.Errorf("ResultFile after recover: %v", err)
	}
}

// writeJobDir hand-writes a pending job's directory the way an earlier
// process would have left it: job.json plus a reads.fa payload.
func writeJobDir(t *testing.T, root, id string, reads int, params string, recs []dna.Record) {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	status := fmt.Sprintf(`{"id": %q, "kind": "assemble", "state": "pending", "reads": %d,
		"params": %s, "created_at": "2026-01-02T03:04:05Z", "checkpoints": 0}`, id, reads, params)
	if err := os.WriteFile(filepath.Join(dir, "job.json"), []byte(status), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFASTAFile(filepath.Join(dir, "reads.fa"), recs); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverShortPayload: a reads.fa holding fewer records than
// job.json's read count fails the job with payload_corrupt instead of
// assembling the shorter set.
func TestRecoverShortPayload(t *testing.T) {
	dir := t.TempDir()
	writeJobDir(t, dir, "jshort", 3, `{"min_overlap": 1000, "polish_rounds": 0, "min_contig": 0}`,
		testRecords(t, 3)[:2])
	m := newTestManager(t, dir, 0)
	defer m.Drain(context.Background())
	restarted, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restarted != 0 {
		t.Errorf("restarted = %d, want 0", restarted)
	}
	st, err := m.Get("jshort")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ErrorCode != "payload_corrupt" {
		t.Errorf("state = %s, code = %q; want failed, payload_corrupt", st.State, st.ErrorCode)
	}
}

// TestRecoverLegacyParams: a job.json written by an older version may
// carry a parameter this one no longer has. Such a job still recovers
// and produces the same contigs as a fresh submission of its reads.
func TestRecoverLegacyParams(t *testing.T) {
	recs := testRecords(t, 20)
	ref := newTestManager(t, t.TempDir(), 0)
	defer ref.Drain(context.Background())
	refSt, err := ref.Submit(KindAssemble, recs, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, ref, refSt.ID, 2*time.Minute); fin.State != StateDone {
		t.Fatalf("reference run: %s (%s)", fin.State, fin.Error)
	}
	refPath, _, err := ref.ResultFile(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeJobDir(t, dir, "jlegacy", len(recs),
		`{"min_overlap": 1000, "polish_rounds": 0, "min_contig": 0, "reorder": "rcm"}`, recs)
	m := newTestManager(t, dir, 0)
	defer m.Drain(context.Background())
	if restarted, err := m.Recover(); err != nil || restarted != 1 {
		t.Fatalf("Recover = %d, %v; want 1, nil", restarted, err)
	}
	if fin := waitState(t, m, "jlegacy", 2*time.Minute); fin.State != StateDone {
		t.Fatalf("recovered job: %s (%s)", fin.State, fin.Error)
	}
	path, _, err := m.ResultFile("jlegacy")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered legacy job's contigs differ from a fresh run's")
	}
}
