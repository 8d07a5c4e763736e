package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rotorring/internal/engine"
)

// defaultPollWait is how long a worker's lease request long-polls on the
// coordinator before coming back empty-handed.
const defaultPollWait = 2 * time.Second

// defaultFlushEvery is how many finished jobs a worker accumulates before
// streaming a partial completion back. Small enough that the coordinator's
// watermark advances while a long lease is still running (and that a
// worker death loses little finished work), large enough to amortize the
// HTTP round trip.
const defaultFlushEvery = 8

// WorkerOptions configures a worker node.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// Name is the operator-facing worker name (defaults to a
	// coordinator-assigned one).
	Name string
	// Parallel is how many leases to execute concurrently (<= 0 selects 1).
	Parallel int
	// Version is the build version reported at registration.
	Version string
	// Pid is reported at registration for operator forensics.
	Pid int
	// Client is the HTTP client to use (nil selects a default with
	// sensible timeouts disabled — lease long-polls hold connections open).
	Client *http.Client
	// Logf logs operational events; nil silences.
	Logf func(format string, args ...any)
}

// WorkerStats is a point-in-time snapshot of a worker's counters.
type WorkerStats struct {
	WorkerID    string
	LeasesTotal int64
	RowsTotal   int64
	JobPanics   int64
	Reregisters int64
}

// Worker is one rotord worker node: it registers with a coordinator,
// heartbeats, pulls leases, executes their jobs with the engine's job
// model, and streams index-free row bytes back. Everything it computes is
// a pure function of (spec, job index), so the coordinator can reassign or
// duplicate its work without a byte of drift.
type Worker struct {
	opts WorkerOptions
	base string

	mu         sync.Mutex
	id         string
	hbInterval time.Duration

	specMu sync.Mutex
	specs  map[string]*engine.ExpandedSweep

	leasesTotal atomic.Int64
	rowsTotal   atomic.Int64
	jobPanics   atomic.Int64
	reregisters atomic.Int64
}

// NewWorker builds a worker; Run drives it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	return &Worker{
		opts:  opts,
		base:  strings.TrimSuffix(opts.Coordinator, "/"),
		specs: make(map[string]*engine.ExpandedSweep),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Stats returns the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	return WorkerStats{
		WorkerID:    id,
		LeasesTotal: w.leasesTotal.Load(),
		RowsTotal:   w.rowsTotal.Load(),
		JobPanics:   w.jobPanics.Load(),
		Reregisters: w.reregisters.Load(),
	}
}

// Run registers with the coordinator (retrying until ctx ends — the
// coordinator may not be up yet), then heartbeats and executes leases on
// Parallel executor goroutines until ctx ends.
func (w *Worker) Run(ctx context.Context) error {
	if _, err := w.register(ctx, ""); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.opts.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.executorLoop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

// currentID returns the worker's registered id.
func (w *Worker) currentID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// register (re-)registers with the coordinator, retrying with backoff
// until ctx ends. stale is the id the caller found rejected; if another
// goroutine already re-registered past it, the fresh id is returned
// without another registration.
func (w *Worker) register(ctx context.Context, stale string) (string, error) {
	w.mu.Lock()
	if w.id != "" && w.id != stale {
		id := w.id
		w.mu.Unlock()
		return id, nil
	}
	w.mu.Unlock()

	req := RegisterRequest{
		Name:     w.opts.Name,
		Pid:      w.opts.Pid,
		Version:  w.opts.Version,
		Parallel: w.opts.Parallel,
	}
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		status, err := w.post(ctx, "/v1/cluster/register", req, &resp)
		if err == nil && status == http.StatusOK && resp.WorkerID != "" {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.hbInterval = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.hbInterval <= 0 {
				w.hbInterval = time.Second
			}
			w.mu.Unlock()
			if stale != "" {
				w.reregisters.Add(1)
			}
			w.logf("cluster: registered with %s as %s (heartbeat every %s)", w.base, resp.WorkerID, w.hbInterval)
			return resp.WorkerID, nil
		}
		if err == nil {
			err = fmt.Errorf("register: status %d", status)
		}
		w.logf("cluster: register with %s failed (%v); retrying in %s", w.base, err, backoff)
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.hbInterval
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		id := w.currentID()
		status, err := w.post(ctx, "/v1/cluster/heartbeat", HeartbeatRequest{WorkerID: id}, nil)
		if err != nil {
			continue // transient; the next beat retries
		}
		if status == http.StatusNotFound {
			// The coordinator forgot us (it restarted, or we were presumed
			// dead); rejoin under a fresh id.
			if _, err := w.register(ctx, id); err != nil {
				return
			}
		}
	}
}

func (w *Worker) executorLoop(ctx context.Context) {
	// JobRunners are not safe for concurrent use, so each executor keeps
	// its own per-sweep runner (prototype reuse across this executor's
	// consecutive leases of one sweep).
	runners := make(map[string]*engine.JobRunner)
	for ctx.Err() == nil {
		id := w.currentID()
		var leaseResp LeaseResponse
		status, err := w.post(ctx, "/v1/cluster/lease",
			LeaseRequest{WorkerID: id, WaitMillis: defaultPollWait.Milliseconds()}, &leaseResp)
		switch {
		case err != nil:
			select {
			case <-ctx.Done():
			case <-time.After(200 * time.Millisecond):
			}
			continue
		case status == http.StatusNotFound:
			if _, err := w.register(ctx, id); err != nil {
				return
			}
			continue
		case status == http.StatusNoContent:
			continue
		case status != http.StatusOK:
			select {
			case <-ctx.Done():
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		w.leasesTotal.Add(1)
		w.execute(ctx, id, &leaseResp, runners)
	}
}

// expand returns the expanded sweep for a lease, cached by sweep id (the
// id is content-addressed, so an entry can never go stale).
func (w *Worker) expand(sweepID string, spec []byte) (*engine.ExpandedSweep, error) {
	w.specMu.Lock()
	defer w.specMu.Unlock()
	if exp, ok := w.specs[sweepID]; ok {
		return exp, nil
	}
	decoded, err := engine.DecodeWireSpec(spec)
	if err != nil {
		return nil, err
	}
	exp, err := engine.Expand(decoded)
	if err != nil {
		return nil, err
	}
	w.specs[sweepID] = exp
	return exp, nil
}

// runJob executes one job under a recover barrier and returns its
// index-free row bytes; a panic (or an encode failure) comes back as an
// error for the coordinator to fail the sweep with.
func runJob(runner *engine.JobRunner, job int) (rowBytes []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	row := runner.Run(job)
	row.Index = 0 // index-free: the coordinator re-indexes under its grid
	return engine.RowBytes(row)
}

// execute runs one lease's jobs, streaming partial completions back every
// defaultFlushEvery jobs so the coordinator's watermark advances (and the
// lease deadline extends) while long chunks are still running.
func (w *Worker) execute(ctx context.Context, workerID string, l *LeaseResponse, runners map[string]*engine.JobRunner) {
	exp, err := w.expand(l.SweepID, l.Spec)
	if err != nil {
		w.logf("cluster: lease %s: spec does not expand: %v", l.LeaseID, err)
		w.sendComplete(ctx, CompleteRequest{
			WorkerID: workerID, LeaseID: l.LeaseID, SweepID: l.SweepID,
			Failed: &JobFailure{Job: -1, Cause: fmt.Sprintf("expand spec: %v", err)},
		})
		return
	}
	runner, ok := runners[l.SweepID]
	if !ok {
		runner = exp.NewRunner()
		runners[l.SweepID] = runner
	}
	var batch []RowResult
	flush := func() {
		if len(batch) == 0 {
			return
		}
		w.sendComplete(ctx, CompleteRequest{
			WorkerID: workerID, LeaseID: l.LeaseID, SweepID: l.SweepID, Rows: batch,
		})
		w.rowsTotal.Add(int64(len(batch)))
		batch = nil
	}
	for _, job := range l.Jobs {
		if ctx.Err() != nil {
			return // dying mid-lease: the deadline reassigns the rest
		}
		if job < 0 || job >= exp.NumJobs() {
			flush()
			w.sendComplete(ctx, CompleteRequest{
				WorkerID: workerID, LeaseID: l.LeaseID, SweepID: l.SweepID,
				Failed: &JobFailure{Job: job, Cause: fmt.Sprintf("job %d out of range (grid has %d)", job, exp.NumJobs())},
			})
			return
		}
		rowBytes, err := runJob(runner, job)
		if err != nil {
			w.jobPanics.Add(1)
			// The runner's prototype state may be poisoned; rebuild next time.
			delete(runners, l.SweepID)
			flush()
			w.sendComplete(ctx, CompleteRequest{
				WorkerID: workerID, LeaseID: l.LeaseID, SweepID: l.SweepID,
				Failed: &JobFailure{Job: job, Cause: err.Error()},
			})
			return
		}
		batch = append(batch, RowResult{Job: job, Row: string(rowBytes)})
		if len(batch) >= defaultFlushEvery {
			flush()
		}
	}
	flush()
}

// sendComplete posts one completion, retrying transient transport errors:
// finished rows are worth a few attempts before the lease deadline
// recomputes them.
func (w *Worker) sendComplete(ctx context.Context, req CompleteRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		status, err := w.post(ctx, "/v1/cluster/complete", req, nil)
		if err == nil && status == http.StatusOK {
			return
		}
		if err == nil && status == http.StatusNotFound {
			// The coordinator forgot us; the rows will be recomputed under
			// whoever holds the reassigned lease. Rejoin for future leases.
			w.register(ctx, req.WorkerID)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	w.logf("cluster: completion of lease %s dropped after retries; the deadline will reassign it", req.LeaseID)
}

// post sends one JSON request; resp may be nil to discard the body.
func (w *Worker) post(ctx context.Context, path string, body, resp any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if resp != nil && res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
			return res.StatusCode, err
		}
		return res.StatusCode, nil
	}
	io.Copy(io.Discard, res.Body)
	return res.StatusCode, nil
}

// Handler returns the worker role's own observability endpoints: GET
// /healthz (role, version, coordinator) and GET /metrics (Prometheus text
// format), so operators and smoke tests can tell the roles apart.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		clusterJSON(rw, http.StatusOK, map[string]any{
			"status":      "ok",
			"role":        "worker",
			"version":     w.opts.Version,
			"name":        w.opts.Name,
			"workerId":    w.currentID(),
			"coordinator": w.base,
			"parallel":    w.opts.Parallel,
		})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		st := w.Stats()
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE rotord_info gauge\nrotord_info{role=\"worker\",version=%q} 1\n", w.opts.Version)
		fmt.Fprintf(&b, "# TYPE rotord_worker_leases_total counter\nrotord_worker_leases_total %d\n", st.LeasesTotal)
		fmt.Fprintf(&b, "# TYPE rotord_worker_rows_total counter\nrotord_worker_rows_total %d\n", st.RowsTotal)
		fmt.Fprintf(&b, "# TYPE rotord_worker_job_panics_total counter\nrotord_worker_job_panics_total %d\n", st.JobPanics)
		fmt.Fprintf(&b, "# TYPE rotord_worker_reregisters_total counter\nrotord_worker_reregisters_total %d\n", st.Reregisters)
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(rw, b.String())
	})
	return mux
}
