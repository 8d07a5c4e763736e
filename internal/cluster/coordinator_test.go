package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// harness stubs the sweep-service side of Config and records everything
// the coordinator pushes through it.
type harness struct {
	mu        sync.Mutex
	committed map[int][]byte // job -> bytes (last write wins)
	commits   int
	failures  []string
	fallbacks [][]int
	reject    map[int]bool // jobs whose commit reports bad bytes
}

func newHarness() *harness {
	return &harness{committed: make(map[int][]byte), reject: make(map[int]bool)}
}

func (h *harness) config(ttl time.Duration) Config {
	return Config{
		TTL: ttl,
		Commit: func(sweepID string, job int, b []byte) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.reject[job] {
				return fmt.Errorf("bad bytes for job %d", job)
			}
			h.committed[job] = append([]byte(nil), b...)
			h.commits++
			return nil
		},
		Fail: func(sweepID string, job int, cause string) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.failures = append(h.failures, fmt.Sprintf("%s/%d: %s", sweepID, job, cause))
		},
		Runnable: func(sweepID string) bool { return true },
		SpecOf:   func(sweepID string) ([]byte, bool) { return []byte(`{"v":1}`), true },
		Fallback: func(sweepID string, jobs []int) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.fallbacks = append(h.fallbacks, append([]int(nil), jobs...))
		},
	}
}

func (h *harness) committedJobs() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	jobs := make([]int, 0, len(h.committed))
	for j := range h.committed {
		jobs = append(jobs, j)
	}
	return jobs
}

func (h *harness) fallbackJobs() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var jobs []int
	for _, f := range h.fallbacks {
		jobs = append(jobs, f...)
	}
	return jobs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDispatchWithoutWorkersFallsBack pins the single-node contract: with
// no workers registered, Dispatch declines and the caller runs the chunk
// locally; with one worker, chunks queue for remote execution.
func TestDispatchWithoutWorkersFallsBack(t *testing.T) {
	h := newHarness()
	c := NewCoordinator(h.config(time.Hour))
	defer c.Close()

	if c.Dispatch("s1", []int{0, 1}) {
		t.Fatal("Dispatch accepted a chunk with zero workers registered")
	}
	c.register(RegisterRequest{Name: "w"})
	if !c.Dispatch("s1", []int{0, 1}) {
		t.Fatal("Dispatch declined a chunk with a live worker")
	}
	if snap := c.Snapshot(); snap.PendingChunks != 1 || snap.PendingJobs != 2 {
		t.Fatalf("pending = %d chunks / %d jobs, want 1/2", snap.PendingChunks, snap.PendingJobs)
	}
}

// TestLeaseLifecycle walks the happy path: register, dispatch, grant,
// complete in two partials, and verify the lease closes with every row
// committed and counted.
func TestLeaseLifecycle(t *testing.T) {
	h := newHarness()
	c := NewCoordinator(h.config(time.Hour))
	defer c.Close()

	reg := c.register(RegisterRequest{Name: "w", Parallel: 2})
	if !c.Dispatch("s1", []int{0, 1, 2, 3}) {
		t.Fatal("Dispatch declined")
	}
	l, err := c.grant(reg.WorkerID, 0)
	if err != nil || l == nil {
		t.Fatalf("grant: lease=%v err=%v", l, err)
	}
	if l.SweepID != "s1" || len(l.Jobs) != 4 {
		t.Fatalf("lease = %+v, want sweep s1 with 4 jobs", l)
	}

	resp, err := c.complete(CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: l.LeaseID, SweepID: "s1",
		Rows: []RowResult{{Job: 0, Row: "r0\n"}, {Job: 1, Row: "r1\n"}},
	})
	if err != nil || resp.Committed != 2 {
		t.Fatalf("partial complete: resp=%+v err=%v", resp, err)
	}
	if snap := c.Snapshot(); snap.ActiveLeases != 1 {
		t.Fatalf("lease closed after a partial completion (active=%d)", snap.ActiveLeases)
	}
	resp, err = c.complete(CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: l.LeaseID, SweepID: "s1",
		Rows: []RowResult{{Job: 2, Row: "r2\n"}, {Job: 3, Row: "r3\n"}},
	})
	if err != nil || resp.Committed != 2 {
		t.Fatalf("final complete: resp=%+v err=%v", resp, err)
	}

	snap := c.Snapshot()
	if snap.ActiveLeases != 0 || snap.RemoteRows != 4 || snap.LeasesGranted != 1 {
		t.Fatalf("after full completion: %+v", snap)
	}
	if got := h.committedJobs(); len(got) != 4 {
		t.Fatalf("committed jobs = %v, want 4 distinct", got)
	}
	if len(snap.PerWorker) != 1 || snap.PerWorker[0].RowsTotal != 4 {
		t.Fatalf("per-worker stats = %+v", snap.PerWorker)
	}

	if _, err := c.complete(CompleteRequest{WorkerID: "nobody", LeaseID: "x", SweepID: "s1"}); err == nil {
		t.Fatal("completion from an unknown worker was accepted")
	}
}

// TestDeadWorkerReassignsToSurvivor kills one worker mid-lease (it simply
// goes silent) and asserts the surviving worker is granted exactly the
// dead worker's unfinished jobs.
func TestDeadWorkerReassignsToSurvivor(t *testing.T) {
	h := newHarness()
	ttl := 150 * time.Millisecond
	c := NewCoordinator(h.config(ttl))
	defer c.Close()

	zombie := c.register(RegisterRequest{Name: "zombie"})
	survivor := c.register(RegisterRequest{Name: "survivor"})

	// Keep the survivor's liveness window open while the zombie expires.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(25 * time.Millisecond):
				c.heartbeat(survivor.WorkerID)
			}
		}
	}()

	if !c.Dispatch("s1", []int{0, 1, 2}) {
		t.Fatal("Dispatch declined")
	}
	l, err := c.grant(zombie.WorkerID, 0)
	if err != nil || l == nil {
		t.Fatalf("zombie grant: %v, %v", l, err)
	}
	// The zombie partially completes job 0 and then dies; only 1 and 2
	// should come back around.
	if _, err := c.complete(CompleteRequest{
		WorkerID: zombie.WorkerID, LeaseID: l.LeaseID, SweepID: "s1",
		Rows: []RowResult{{Job: 0, Row: "r0\n"}},
	}); err != nil {
		t.Fatalf("zombie partial complete: %v", err)
	}

	got, err := c.grant(survivor.WorkerID, 4*ttl)
	if err != nil {
		t.Fatalf("survivor grant: %v", err)
	}
	if got == nil {
		t.Fatal("survivor never received the reassigned lease")
	}
	if len(got.Jobs) != 2 || got.Jobs[0] != 1 || got.Jobs[1] != 2 {
		t.Fatalf("reassigned jobs = %v, want [1 2]", got.Jobs)
	}
	snap := c.Snapshot()
	if snap.LeasesReassigned < 1 || snap.WorkersExpired < 1 {
		t.Fatalf("reassigned=%d expired workers=%d, want >= 1 each", snap.LeasesReassigned, snap.WorkersExpired)
	}
}

// TestZeroWorkersDrainsToFallback pins the safety net: when the last
// worker disappears with chunks queued, they drain to the local pool.
func TestZeroWorkersDrainsToFallback(t *testing.T) {
	h := newHarness()
	c := NewCoordinator(h.config(100 * time.Millisecond))
	defer c.Close()

	c.register(RegisterRequest{Name: "doomed"})
	if !c.Dispatch("s1", []int{0, 1, 2, 3}) {
		t.Fatal("Dispatch declined")
	}
	waitFor(t, 5*time.Second, "fallback drain", func() bool {
		return len(h.fallbackJobs()) == 4
	})
	if got := h.fallbackJobs(); len(got) != 4 {
		t.Fatalf("fallback jobs = %v, want all 4", got)
	}
	if snap := c.Snapshot(); snap.Workers != 0 || snap.WorkersExpired < 1 || snap.PendingChunks != 0 {
		t.Fatalf("after drain: %+v", snap)
	}
}

// TestLateCompletionStillCommits pins idempotence-by-construction: rows
// arriving under an unknown lease (expired and reassigned, coordinator
// restarted) commit anyway and are merely counted late.
func TestLateCompletionStillCommits(t *testing.T) {
	h := newHarness()
	c := NewCoordinator(h.config(time.Hour))
	defer c.Close()

	reg := c.register(RegisterRequest{Name: "w"})
	resp, err := c.complete(CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: "l-long-gone", SweepID: "s1",
		Rows: []RowResult{{Job: 7, Row: "r7\n"}},
	})
	if err != nil || resp.Committed != 1 {
		t.Fatalf("late complete: resp=%+v err=%v", resp, err)
	}
	snap := c.Snapshot()
	if snap.LateRows != 1 || snap.RemoteRows != 1 {
		t.Fatalf("late=%d remote=%d, want 1/1", snap.LateRows, snap.RemoteRows)
	}
	if got := h.committedJobs(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("committed jobs = %v, want [7]", got)
	}
}

// TestRejectedRowsRequeue: bytes the commit callback rejects go back to
// the front of the pending queue for reassignment.
func TestRejectedRowsRequeue(t *testing.T) {
	h := newHarness()
	h.reject[1] = true
	c := NewCoordinator(h.config(time.Hour))
	defer c.Close()

	reg := c.register(RegisterRequest{Name: "w"})
	c.Dispatch("s1", []int{0, 1})
	l, _ := c.grant(reg.WorkerID, 0)
	resp, err := c.complete(CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: l.LeaseID, SweepID: "s1",
		Rows: []RowResult{{Job: 0, Row: "r0\n"}, {Job: 1, Row: "garbage"}},
	})
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if resp.Committed != 1 || len(resp.Requeued) != 1 || resp.Requeued[0] != 1 {
		t.Fatalf("resp = %+v, want committed 1, requeued [1]", resp)
	}
	snap := c.Snapshot()
	if snap.PendingChunks != 1 || snap.PendingJobs != 1 || snap.LeasesReassigned != 1 {
		t.Fatalf("after rejection: %+v", snap)
	}
}

// TestHungWorkerStruckOut: a worker that heartbeats but never finishes
// leases blows maxStrikes deadlines and is deregistered, so it cannot
// capture work forever.
func TestHungWorkerStruckOut(t *testing.T) {
	h := newHarness()
	ttl := 100 * time.Millisecond
	c := NewCoordinator(h.config(ttl))
	defer c.Close()

	reg := c.register(RegisterRequest{Name: "hung"})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				c.heartbeat(reg.WorkerID)
			}
		}
	}()

	c.Dispatch("s1", []int{0})
	for strike := 1; strike <= maxStrikes; strike++ {
		l, err := c.grant(reg.WorkerID, 4*ttl)
		if err != nil {
			// Struck out between grants — acceptable only after the last
			// strike.
			if strike <= maxStrikes {
				t.Fatalf("grant before strike %d: %v", strike, err)
			}
			break
		}
		if l == nil {
			t.Fatalf("no lease before strike %d", strike)
		}
		// Never complete: let the deadline blow.
		before := c.Snapshot().LeasesExpired
		waitFor(t, 5*time.Second, fmt.Sprintf("lease expiry %d", strike), func() bool {
			return c.Snapshot().LeasesExpired > before
		})
	}
	waitFor(t, 5*time.Second, "hung worker deregistration", func() bool {
		return !c.heartbeat(reg.WorkerID)
	})
	// With zero workers left, the chunk must have drained to the fallback.
	waitFor(t, 5*time.Second, "fallback after strikeout", func() bool {
		return len(h.fallbackJobs()) >= 1
	})
}

// FuzzCoordinatorComplete posts arbitrary bodies to /v1/cluster/complete
// on a coordinator whose one worker holds a lease on jobs [0, 8) of sweep
// s1; rows that are not valid JSON fail the commit. Whatever the body, the
// coordinator must not panic, must answer 200, 400 or 404, and must never
// queue a job it did not lease (nor one job twice). A fresh coordinator
// assigns the ids the seed corpus names: worker "w1-fuzz", lease "l-2".
func FuzzCoordinatorComplete(f *testing.F) {
	for _, body := range []string{
		`{"workerId":"w1-fuzz","leaseId":"l-2","sweepId":"s1","rows":[{"job":0,"row":"{}\n"},{"job":1,"row":"garbage"}]}`,
		`{"workerId":"w1-fuzz","leaseId":"l-2","sweepId":"s1","rows":[{"job":13,"row":"garbage"},{"job":-1,"row":"garbage"}]}`,
		`{"workerId":"w1-fuzz","leaseId":"l-2","sweepId":"s1","rows":[{"job":2,"row":"x"},{"job":2,"row":"x"}],"failed":{"job":99,"cause":"boom"}}`,
		`{"workerId":"w1-fuzz","leaseId":"l-gone","sweepId":"s1","rows":[{"job":3,"row":"garbage"}]}`,
		`{"workerId":"w1-fuzz","leaseId":"l-2","sweepId":"s2","rows":[{"job":3,"row":"garbage"}]}`,
		`{"workerId":"nobody","leaseId":"l-2","sweepId":"s1"}`,
		`{"rows":[{"job":"x"}]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := newHarness().config(time.Hour)
		cfg.Commit = func(_ string, _ int, b []byte) error {
			if !json.Valid(b) {
				return errors.New("not a row")
			}
			return nil
		}
		c := NewCoordinator(cfg)
		defer c.Close()
		reg := c.register(RegisterRequest{Name: "fuzz"})
		c.Dispatch("s1", []int{0, 1, 2, 3, 4, 5, 6, 7})
		l, err := c.grant(reg.WorkerID, 0)
		if err != nil || l == nil || reg.WorkerID != "w1-fuzz" || l.LeaseID != "l-2" {
			t.Fatalf("setup: worker %q lease %+v err %v", reg.WorkerID, l, err)
		}

		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/complete", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		queued := map[int]bool{}
		for _, ch := range c.pending {
			for _, j := range ch.jobs {
				if ch.sweep != "s1" || j < 0 || j >= 8 || queued[j] {
					t.Fatalf("queued job %d of sweep %q, which was not leased once", j, ch.sweep)
				}
				queued[j] = true
			}
		}
	})
}

// TestControlBodiesCapped posts an 8 MiB body, a worker name that long, to
// each of the register, heartbeat and lease endpoints: each must answer 413
// without registering anything, so the worker list stays small.
func TestControlBodiesCapped(t *testing.T) {
	c := NewCoordinator(newHarness().config(time.Hour))
	defer c.Close()
	h := c.Handler()
	reg := c.register(RegisterRequest{Name: "small"})
	huge := strings.Repeat("x", 8<<20)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/cluster/register", RegisterRequest{Name: huge}},
		{"/v1/cluster/heartbeat", map[string]string{"workerId": reg.WorkerID, "pad": huge}},
		{"/v1/cluster/lease", map[string]string{"workerId": reg.WorkerID, "pad": huge}},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.Len() > 1<<10 {
			t.Fatalf("%s: status %d with a %d-byte answer, want 413", tc.path, rec.Code, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/workers", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() > 1<<10 {
		t.Fatalf("workers: status %d with a %d-byte answer", rec.Code, rec.Body.Len())
	}
	if n := len(c.Snapshot().PerWorker); n != 1 {
		t.Fatalf("%d workers registered, want 1", n)
	}
}
