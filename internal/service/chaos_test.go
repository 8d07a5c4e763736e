package service

// Deterministic fault-injection suite ("make chaos-smoke"). Every fault
// injected here must land in exactly one of three buckets:
//
//   - failed with cause: the sweep's status says what broke (and, for
//     job-tied faults, which job), the watermark stays exact;
//   - quarantined: recovery moves the undecodable directory aside and the
//     server boots without it;
//   - transparently recovered: truncate-and-resume or delete-and-recompute
//     paths absorb the fault entirely.
//
// And in every bucket, the post-fault resumed stream must be byte-identical
// to library-mode rotorring.RunSweep output for the same spec — asserted by
// a bytes.Equal diff against engine output in each test.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rotorring/internal/engine"
)

// kaboomProc never comes to life: its factory panics, modeling a buggy
// registered process. Registered at test init — the engine accepts it with
// zero edits, and the service must survive it with zero casualties beyond
// the sweep that asked for it.
func init() {
	engine.RegisterProcess(&engine.ProcessDef{
		Name: "kaboom",
		New: func(env *engine.JobEnv) (engine.Proc, error) {
			panic("kaboom: poisoned process factory")
		},
	})
	engine.RegisterProcess(&engine.ProcessDef{Name: "stall", New: newStall})
}

// stallProc blocks its first Step until the test releases it: the shape of
// a job that outlives the Close drain deadline.
var (
	stallStarted = make(chan struct{}, 16)
	stallRelease = make(chan struct{})
)

type stallProc struct {
	n        int
	released bool
}

func newStall(env *engine.JobEnv) (engine.Proc, error) {
	return &stallProc{n: env.Graph.NumNodes()}, nil
}

func (p *stallProc) Step() {}

func (p *stallProc) RunUntilCovered(maxRounds int64) (int64, error) {
	if !p.released {
		stallStarted <- struct{}{}
		<-stallRelease
		p.released = true
	}
	return 0, nil
}

func (p *stallProc) Round() int64 { return 0 }
func (p *stallProc) Covered() int {
	if p.released {
		return p.n
	}
	return 1
}

// startChaosServer is startServer with arbitrary options (fault-injecting
// filesystems, admission limits, drain deadlines).
func startChaosServer(t *testing.T, spool string, opts ...Option) *testServer {
	t.Helper()
	srv, err := Open(spool, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &testServer{srv: srv, http: ts}
}

// waitState polls a sweep until its status reaches want.
func waitState(t *testing.T, ts *testServer, id, want string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := ts.statusOf(t, id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in state %s (want %s): %+v", id, st.State, want, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// completeLines counts newline-terminated rows in a spool file.
func completeLines(t *testing.T, path string) (complete int, partialTail bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if line[len(line)-1] != '\n' {
			return complete, true
		}
		complete++
	}
	return complete, false
}

// chaosSpec is a small sweep with enough rows that disk faults land
// mid-stream.
func chaosSpec() engine.SweepSpec {
	return engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{2},
		Replicas:   16,
		Seed:       7,
	}
}

// slowSpec is a one-cell, many-replica sweep with steady per-job progress.
// Tests that must land an action mid-sweep deterministically switch it to
// the gated "creep" process (service_test.go) — raw job cost alone cannot
// outrun a fast machine.
func slowSpec() engine.SweepSpec {
	return engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{1024},
		Agents:     []int{2},
		Replicas:   80,
		Seed:       7,
	}
}

// TestChaosENOSPCMidAppend fills the disk (deterministically) under the
// row spool mid-sweep: the sweep must land in "failed" with the ENOSPC
// cause and an exact watermark — completed equals the complete lines on
// disk — and a restart on a healthy disk must resume to byte-identity.
func TestChaosENOSPCMidAppend(t *testing.T) {
	spec := chaosSpec()
	want := libraryJSONL(t, spec)
	spool := t.TempDir()

	chaos := newChaosFS(osFS{}, 7)
	chaos.arm(faultRule{Op: opAppend, Path: "rows.jsonl", Kind: faultENOSPC, After: 600})
	ts := startChaosServer(t, spool, Workers(2), withFS(chaos))
	st := ts.submit(t, wireSpec(t, spec))

	failed := waitState(t, ts, st.ID, "failed")
	if !strings.Contains(failed.Error, "no space left on device") {
		t.Errorf("failure cause %q does not name ENOSPC", failed.Error)
	}
	if failed.Completed >= failed.Jobs {
		t.Errorf("failed sweep claims %d of %d rows: fault did not land mid-sweep", failed.Completed, failed.Jobs)
	}
	onDisk, _ := completeLines(t, filepath.Join(spool, "sweeps", st.ID, "rows.jsonl"))
	if onDisk != failed.Completed {
		t.Errorf("watermark %d but %d complete rows on disk: not exact", failed.Completed, onDisk)
	}
	ts.http.Close()
	ts.srv.Close()

	// The disk "empties": a healthy restart resumes from the watermark.
	ts2 := startServer(t, spool, 4)
	if got := ts2.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("post-ENOSPC resumed stream differs from library bytes (%d vs %d)", len(got), len(want))
	}
}

// TestChaosTornWrite tears one row append mid-byte (seeded cut point): the
// sweep fails, the spool ends in a partial line, and recovery's truncate-
// and-resume restores byte identity exactly.
func TestChaosTornWrite(t *testing.T) {
	spec := chaosSpec()
	want := libraryJSONL(t, spec)
	spool := t.TempDir()

	chaos := newChaosFS(osFS{}, 11)
	chaos.arm(faultRule{Op: opAppend, Path: "rows.jsonl", Kind: faultTorn, Skip: 2})
	ts := startChaosServer(t, spool, Workers(2), withFS(chaos))
	st := ts.submit(t, wireSpec(t, spec))

	failed := waitState(t, ts, st.ID, "failed")
	onDisk, partial := completeLines(t, filepath.Join(spool, "sweeps", st.ID, "rows.jsonl"))
	if !partial {
		t.Error("torn write left no partial tail on disk; the fault did not tear")
	}
	if onDisk != failed.Completed {
		t.Errorf("watermark %d but %d complete rows on disk", failed.Completed, onDisk)
	}
	ts.http.Close()
	ts.srv.Close()

	ts2 := startServer(t, spool, 4)
	st2 := ts2.statusOf(t, st.ID)
	if st2.Completed < onDisk {
		t.Errorf("recovery lost complete rows: %d < %d", st2.Completed, onDisk)
	}
	if got := ts2.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("post-torn-write resumed stream differs from library bytes")
	}
}

// TestChaosPanicIsolation submits a sweep over a process whose factory
// panics, concurrently with a healthy sweep: the poisoned sweep must fail
// with the panic value and job key in its status, the healthy sweep must
// complete byte-identical, and the server must keep serving.
func TestChaosPanicIsolation(t *testing.T) {
	healthy := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{512},
		Agents:     []int{2},
		Replicas:   20,
		Seed:       7,
	}
	want := libraryJSONL(t, healthy)
	poisoned := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{16},
		Agents:     []int{1},
		Process:    "kaboom",
		Replicas:   2,
		Seed:       7,
	}

	ts := startChaosServer(t, t.TempDir(), Workers(2))
	stHealthy := ts.submit(t, wireSpec(t, healthy))
	stBad := ts.submit(t, wireSpec(t, poisoned))

	failed := waitState(t, ts, stBad.ID, "failed")
	if !strings.Contains(failed.Error, "panic") || !strings.Contains(failed.Error, "poisoned process factory") {
		t.Errorf("poisoned sweep error %q does not carry the panic value", failed.Error)
	}
	if !strings.Contains(failed.FailedJob, "proc=kaboom") {
		t.Errorf("failedJob %q does not name the job key", failed.FailedJob)
	}

	if got := ts.get(t, "/v1/sweeps/"+stHealthy.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("healthy sweep's bytes differ from library output after a neighbor panicked")
	}
	if st := ts.statusOf(t, stHealthy.ID); st.State != "done" {
		t.Errorf("healthy sweep state %s, want done", st.State)
	}
	// The server keeps serving: liveness and a fresh submission both work.
	ts.get(t, "/healthz")
	third := ts.submit(t, []byte(`{"v":1,"topologies":["ring"],"sizes":[32],"agents":[2],"seed":9}`))
	waitState(t, ts, third.ID, "done")
}

// TestChaosCancelMidSweep cancels a running sweep: status flips to
// canceled, the spool directory is removed, in-flight streams terminate,
// row requests answer 410, and re-submitting the same spec starts it over
// to full byte identity.
func TestChaosCancelMidSweep(t *testing.T) {
	// The creep gate pins the cancel mid-sweep: three jobs complete (the
	// stream has bytes to hand the client), the fourth blocks until the
	// gate is released for the post-cancel recompute.
	spec := slowSpec()
	spec.Process = "creep"
	want := libraryJSONL(t, spec) // gate disarmed: runs straight through
	spool := t.TempDir()
	ts := startChaosServer(t, spool, Workers(1))
	armCreepGate(3)
	defer releaseCreepGate()
	st := ts.submit(t, wireSpec(t, spec))

	// A client streaming during the cancel must see its stream end.
	streamDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.http.URL + "/v1/sweeps/" + st.ID + "/rows")
		if err != nil {
			streamDone <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		streamDone <- b
	}()

	deadline := time.Now().Add(30 * time.Second)
	for ts.statusOf(t, st.ID).Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no progress before cancel")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.http.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || canceled.State != "canceled" {
		t.Fatalf("DELETE: status %d state %s, want 200 canceled", resp.StatusCode, canceled.State)
	}

	select {
	case <-streamDone:
		// The mid-stream client was released.
	case <-time.After(30 * time.Second):
		t.Fatal("mid-stream client still blocked 30s after cancel")
	}
	if _, err := os.Stat(filepath.Join(spool, "sweeps", st.ID)); !os.IsNotExist(err) {
		t.Errorf("canceled sweep's spool directory still exists (stat err %v)", err)
	}
	resp, err = http.Get(ts.http.URL + "/v1/sweeps/" + st.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("rows of canceled sweep: status %d, want 410", resp.StatusCode)
	}

	// Resubmission starts over (created=true) and reaches byte identity.
	// Release the gate first: the recompute (and the abandoned in-flight
	// job, whose late delivery is dropped) must run free.
	releaseCreepGate()
	resub := ts.submit(t, wireSpec(t, spec))
	if resub.ID != st.ID {
		t.Fatalf("resubmitted spec got id %s, want %s", resub.ID, st.ID)
	}
	if got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("post-cancel resubmitted stream differs from library bytes")
	}
}

// TestChaosQuarantineOnRecovery boots a server over a spool holding the
// residue of two crashes — a zero-byte meta.json (kill between create and
// write, pre-atomic-rename style) and a missing spec.json (kill during
// cancel's directory removal). Both directories must move to
// spool/quarantine/, the server must boot and report them via /readyz, and
// resubmitting the damaged spec must reach byte identity again.
func TestChaosQuarantineOnRecovery(t *testing.T) {
	specA := chaosSpec()
	specB := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"}, Sizes: []int{32}, Agents: []int{4}, Replicas: 2, Seed: 3,
	}
	wantA := libraryJSONL(t, specA)
	spool := t.TempDir()

	ts := startChaosServer(t, spool, Workers(2))
	stA := ts.submit(t, wireSpec(t, specA))
	stB := ts.submit(t, wireSpec(t, specB))
	ts.get(t, "/v1/sweeps/"+stA.ID+"/rows")
	ts.get(t, "/v1/sweeps/"+stB.ID+"/rows")
	ts.http.Close()
	ts.srv.Close()

	// Crash residue: zero-byte meta poisons A, missing spec poisons B.
	if err := os.WriteFile(filepath.Join(spool, "sweeps", stA.ID, "meta.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(spool, "sweeps", stB.ID, "spec.json")); err != nil {
		t.Fatal(err)
	}

	ts2 := startServer(t, spool, 2)
	for _, id := range []string{stA.ID, stB.ID} {
		if _, ok := ts2.srv.Sweep(id); ok {
			t.Errorf("damaged sweep %s was recovered instead of quarantined", id)
		}
		if _, err := os.Stat(filepath.Join(spool, "quarantine", id)); err != nil {
			t.Errorf("quarantine dir for %s: %v", id, err)
		}
	}
	var ready struct {
		Ready       bool     `json:"ready"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.Unmarshal(ts2.get(t, "/readyz"), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || len(ready.Quarantined) != 2 {
		t.Errorf("readyz = %+v, want ready with 2 quarantined ids", ready)
	}

	// The damaged experiment resubmits cleanly (warm row cache and all).
	st := ts2.submit(t, wireSpec(t, specA))
	if got := ts2.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, wantA) {
		t.Errorf("post-quarantine resubmitted stream differs from library bytes")
	}
}

// TestChaosCorruptCacheEntry corrupts row-cache entries both ways a real
// disk does — a truncated entry (no trailing newline) and a complete-
// looking but undecodable one — and proves both are deleted and recomputed
// with the stream still byte-identical: cache corruption is never fatal
// and never shadows correct bytes.
func TestChaosCorruptCacheEntry(t *testing.T) {
	spec := chaosSpec()
	want := libraryJSONL(t, spec)
	spool := t.TempDir()

	ts := startChaosServer(t, spool, Workers(2))
	st := ts.submit(t, wireSpec(t, spec))
	ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	ts.http.Close()
	ts.srv.Close()

	var entries []string
	filepath.Walk(filepath.Join(spool, "cache"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".row") {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) < 2 {
		t.Fatalf("want >= 2 cache entries to corrupt, have %d", len(entries))
	}
	// Entry 0: truncated store (no newline) — load() deletes it.
	if err := os.WriteFile(entries[0], []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry 1: complete-looking but undecodable — reindexRow fails, the
	// feeder deletes it.
	if err := os.WriteFile(entries[1], []byte("{\"garbage\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh sweeps dir, same cache: the resubmission replays what it can.
	if err := os.RemoveAll(filepath.Join(spool, "sweeps")); err != nil {
		t.Fatal(err)
	}

	ts2 := startServer(t, spool, 2)
	st2 := ts2.submit(t, wireSpec(t, spec))
	if got := ts2.get(t, "/v1/sweeps/"+st2.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("stream over corrupt cache differs from library bytes")
	}
	final := ts2.statusOf(t, st2.ID)
	if final.CacheHits >= final.Jobs {
		t.Errorf("cacheHits %d of %d jobs: corrupt entries were served as hits", final.CacheHits, final.Jobs)
	}
	for i, path := range entries[:2] {
		b, err := os.ReadFile(path)
		if err == nil && (bytes.Contains(b, []byte("truncated")) || bytes.Contains(b, []byte("garbage"))) {
			t.Errorf("corrupt cache entry %d survived: %q", i, b)
		}
	}
}

// TestChaosCacheWriteErrors makes a cache store fail: the sweep must still
// complete byte-identical (the cache is best-effort), but the loss must be
// counted in the status instead of vanishing silently.
func TestChaosCacheWriteErrors(t *testing.T) {
	spec := chaosSpec()
	want := libraryJSONL(t, spec)

	chaos := newChaosFS(osFS{}, 13)
	chaos.arm(faultRule{Op: opCreate, Path: "cache/", Kind: faultErr})
	ts := startChaosServer(t, t.TempDir(), Workers(2), withFS(chaos))
	st := ts.submit(t, wireSpec(t, spec))
	if got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("stream differs from library bytes under cache-write faults")
	}
	final := ts.statusOf(t, st.ID)
	if final.State != "done" {
		t.Errorf("state %s, want done: cache-write faults must not fail the sweep", final.State)
	}
	if final.CacheWriteErrors < 1 {
		t.Errorf("cacheWriteErrors = %d, want >= 1: the lost store went uncounted", final.CacheWriteErrors)
	}
}

// TestChaosAdmission pins the admission-control surface: body and job
// limits answer 413, the active-sweep limit answers 429 with Retry-After —
// and idempotent resubmission of a running sweep is never rejected.
func TestChaosAdmission(t *testing.T) {
	post := func(ts *testServer, body []byte) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.http.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	t.Run("max-jobs", func(t *testing.T) {
		ts := startChaosServer(t, t.TempDir(), Workers(1), MaxExpandedJobs(4))
		spec := chaosSpec() // 16 jobs
		resp, body := post(ts, wireSpec(t, spec))
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "jobs") {
			t.Errorf("oversized grid: status %d body %s, want 413 naming the job limit", resp.StatusCode, body)
		}
	})

	t.Run("max-body", func(t *testing.T) {
		ts := startChaosServer(t, t.TempDir(), Workers(1), MaxBodyBytes(64))
		big := append(wireSpec(t, chaosSpec()), bytes.Repeat([]byte(" "), 128)...)
		resp, body := post(ts, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "request limit") {
			t.Errorf("oversized body: status %d body %s, want 413 naming the byte limit", resp.StatusCode, body)
		}
	})

	t.Run("max-active", func(t *testing.T) {
		ts := startChaosServer(t, t.TempDir(), Workers(1), MaxActiveSweeps(1))
		// Gate every job of the busy sweep: it provably stays active while
		// admission is probed, however fast the machine.
		armCreepGate(0)
		defer releaseCreepGate()
		busy := slowSpec()
		busy.Process = "creep"
		slow := ts.submit(t, wireSpec(t, busy))
		other := engine.SweepSpec{
			Topologies: []engine.Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Replicas: 2, Seed: 5,
		}
		resp, _ := post(ts, wireSpec(t, other))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("over active limit: status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without a Retry-After header")
		}
		// Idempotent resubmission of the running sweep still answers 200.
		resp, _ = post(ts, wireSpec(t, busy))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("idempotent resubmit under load: status %d, want 200", resp.StatusCode)
		}
		// Once the running sweep is gone, admission reopens.
		req, _ := http.NewRequest(http.MethodDelete, ts.http.URL+"/v1/sweeps/"+slow.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
		}
		resp, _ = post(ts, wireSpec(t, other))
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("post-cancel submit: status %d, want 201", resp.StatusCode)
		}
	})
}

// TestChaosProbes pins the health endpoints: healthz is plain liveness,
// readyz reports recovery state, pool size and quarantined ids.
func TestChaosProbes(t *testing.T) {
	ts := startChaosServer(t, t.TempDir(), Workers(2))
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(ts.get(t, "/healthz"), &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz = %+v, err %v", health, err)
	}
	var ready struct {
		Ready       bool     `json:"ready"`
		Workers     int      `json:"workers"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.Unmarshal(ts.get(t, "/readyz"), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Workers != 2 || len(ready.Quarantined) != 0 {
		t.Errorf("readyz = %+v, want ready, 2 workers, no quarantine", ready)
	}
}

// TestChaosClientDisconnect drops a streaming client mid-sweep: the
// server-side stream must end via the request context while the sweep
// itself computes on to completion, unharmed.
func TestChaosClientDisconnect(t *testing.T) {
	spec := slowSpec()
	want := libraryJSONL(t, spec)
	ts := startChaosServer(t, t.TempDir(), Workers(1))
	st := ts.submit(t, wireSpec(t, spec))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.http.URL+"/v1/sweeps/"+st.ID+"/rows", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("first streamed byte: %v", err)
	}
	cancel() // the client vanishes mid-stream
	resp.Body.Close()

	final := waitState(t, ts, st.ID, "done")
	if final.Completed != final.Jobs {
		t.Errorf("sweep finished at %d of %d rows", final.Completed, final.Jobs)
	}
	if got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows"); !bytes.Equal(got, want) {
		t.Errorf("stream after client disconnect differs from library bytes")
	}
}

// TestChaosDrainDeadline closes a server while a job blocks forever: Close
// must return at the drain deadline instead of hanging, and the abandoned
// job's late delivery must be dropped harmlessly.
func TestChaosDrainDeadline(t *testing.T) {
	srv, err := Open(t.TempDir(), Workers(1), DrainTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := engine.EncodeWireSpec(engine.SweepSpec{
		Topologies: []engine.Topo{"ring"}, Sizes: []int{16}, Agents: []int{1},
		Process: "stall", Replicas: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(wire); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stallStarted:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled job never started")
	}
	start := time.Now()
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("Close took %s despite the 100ms drain deadline", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung past the drain deadline on a stalled job")
	}
	select { // free the abandoned worker; its delivery is dropped
	case <-stallRelease: // already released by an earlier -count run
	default:
		close(stallRelease)
	}
	time.Sleep(10 * time.Millisecond)
}
