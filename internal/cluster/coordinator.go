package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultTTL is the default lease deadline and worker-liveness window.
// Small enough that a dead worker's jobs are reassigned quickly, large
// enough that a worker busy on a real chunk plus one dropped heartbeat
// survives.
const DefaultTTL = 15 * time.Second

// maxStrikes is how many lease deadlines a worker may blow before the
// coordinator stops trusting it: a worker that heartbeats but never
// finishes leases (hung executor, wedged disk) would otherwise keep
// re-capturing work forever.
const maxStrikes = 3

// maxPollWait caps a lease long-poll, so worker liveness refreshes at
// least this often even on an idle cluster.
const maxPollWait = 10 * time.Second

// Config wires a Coordinator to the sweep service that owns it. The
// callbacks may be invoked while the Coordinator holds its own lock, so
// they must never call back into the Coordinator.
type Config struct {
	// TTL is the lease deadline and worker-liveness window; <= 0 selects
	// DefaultTTL.
	TTL time.Duration
	// Commit delivers one finished job's index-free row bytes to the
	// sweep's re-sequencer (and row cache). It must be idempotent — the
	// same job may be committed more than once with identical bytes — and
	// it returns an error only when the bytes do not decode as a canonical
	// row, in which case the coordinator reassigns the job.
	Commit func(sweepID string, job int, indexFree []byte) error
	// Fail marks a sweep failed because a worker's job execution panicked
	// (job is -1 when the worker could not even expand the spec).
	Fail func(sweepID string, job int, cause string)
	// Runnable reports whether a sweep still wants jobs executed; chunks
	// of failed, canceled or finished sweeps are dropped at grant time.
	Runnable func(sweepID string) bool
	// SpecOf returns the canonical wire spec bytes of a sweep, for
	// embedding in leases.
	SpecOf func(sweepID string) ([]byte, bool)
	// Fallback runs a chunk on the coordinator's local pool; the
	// coordinator uses it when the last live worker disappears while
	// chunks are still queued for remote execution.
	Fallback func(sweepID string, jobs []int)
	// Logf logs operational events (worker joins, expiries); nil silences.
	Logf func(format string, args ...any)
}

// chunk is a contiguous-ish slice of job indices of one sweep awaiting a
// worker (ascending order; "contiguous" is typical, not required).
type chunk struct {
	sweep string
	jobs  []int
}

// lease is one granted chunk: which worker holds it, which jobs are still
// unreported, and when the grant expires.
type lease struct {
	id       string
	worker   string
	sweep    string
	deadline time.Time
	// remaining tracks jobs not yet committed; reassignment requeues
	// exactly these, so a partially-completed lease loses no finished work.
	remaining map[int]bool
}

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	pid      int
	version  string
	parallel int
	lastSeen time.Time
	// strikes counts blown lease deadlines since the last productive
	// completion; maxStrikes deregisters the worker.
	strikes     int
	active      int
	leasesTotal int64
	rowsTotal   int64
}

// Stats is a point-in-time snapshot of the coordinator for /metrics and
// tests.
type Stats struct {
	Workers          int
	PendingChunks    int
	PendingJobs      int
	ActiveLeases     int
	LeasesGranted    int64
	LeasesExpired    int64
	LeasesReassigned int64
	WorkersExpired   int64
	RemoteRows       int64
	LateRows         int64
	PerWorker        []WorkerStatus
}

// Coordinator is the cluster brain on the rotord coordinator role: it
// tracks workers, queues chunks the sweep service dispatches, grants them
// as deadline-bearing leases, commits streamed-back rows, and reassigns
// anything a dead or hung worker leaves behind.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	closed  bool
	workers map[string]*workerState
	pending []chunk // FIFO; requeues go to the front
	leases  map[string]*lease
	seq     int64
	notify  chan struct{} // closed and replaced when pending gains work

	leasesGranted    int64
	leasesExpired    int64
	leasesReassigned int64
	workersExpired   int64
	remoteRows       int64
	lateRows         int64

	stop   chan struct{}
	tickWG sync.WaitGroup
}

// NewCoordinator starts a coordinator; Close stops its expiry loop.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		leases:  make(map[string]*lease),
		notify:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	period := cfg.TTL / 4
	if period > time.Second {
		period = time.Second
	}
	if period <= 0 {
		period = time.Millisecond
	}
	c.tickWG.Add(1)
	go func() {
		defer c.tickWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-t.C:
				c.expire(now)
			}
		}
	}()
	return c
}

// Close stops the expiry loop and wakes every long-poll. Pending chunks
// are abandoned — the server is shutting down, and the on-disk watermark
// resumes them on the next boot.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.tickWG.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// TTL returns the configured lease/liveness window.
func (c *Coordinator) TTL() time.Duration { return c.cfg.TTL }

// LiveWorkers returns the number of registered workers.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Dispatch offers a chunk for remote execution. It reports false — run the
// chunk locally — when no workers are registered (or the coordinator is
// closed), so a worker-less coordinator behaves exactly like the
// single-node service.
func (c *Coordinator) Dispatch(sweepID string, jobs []int) bool {
	if len(jobs) == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.workers) == 0 {
		return false
	}
	c.pending = append(c.pending, chunk{sweep: sweepID, jobs: jobs})
	c.broadcastLocked()
	return true
}

// broadcastLocked wakes every lease long-poll; callers hold c.mu.
func (c *Coordinator) broadcastLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// register adds a worker and returns its assigned id.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", c.seq)
	}
	w := &workerState{
		id:       fmt.Sprintf("w%d-%s", c.seq, name),
		name:     name,
		pid:      req.Pid,
		version:  req.Version,
		parallel: req.Parallel,
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	c.logf("cluster: worker %s registered (pid %d, version %s, parallel %d; %d workers live)",
		w.id, w.pid, w.version, w.parallel, len(c.workers))
	return RegisterResponse{
		WorkerID:        w.id,
		TTLMillis:       c.cfg.TTL.Milliseconds(),
		HeartbeatMillis: (c.cfg.TTL / 3).Milliseconds(),
	}
}

// heartbeat refreshes a worker's liveness window; false means the
// coordinator does not know the worker (re-register).
func (c *Coordinator) heartbeat(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// errUnknownWorker tells the HTTP layer to answer 404 so the worker
// re-registers.
type errUnknownWorker struct{ id string }

func (e errUnknownWorker) Error() string {
	return fmt.Sprintf("cluster: unknown worker %q (re-register)", e.id)
}

// grant hands workerID the next available chunk as a lease, long-polling
// up to wait. A nil response with nil error means no work (HTTP 204).
func (c *Coordinator) grant(workerID string, wait time.Duration) (*LeaseResponse, error) {
	if wait < 0 {
		wait = 0
	}
	if wait > maxPollWait {
		wait = maxPollWait
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return nil, errUnknownWorker{workerID}
		}
		w.lastSeen = time.Now()
		for len(c.pending) > 0 {
			ch := c.pending[0]
			c.pending = c.pending[1:]
			// Chunks of sweeps that failed, finished or were canceled while
			// queued are dropped here; nothing downstream wants them.
			if c.cfg.Runnable != nil && !c.cfg.Runnable(ch.sweep) {
				continue
			}
			spec, ok := c.cfg.SpecOf(ch.sweep)
			if !ok {
				continue
			}
			c.seq++
			l := &lease{
				id:        fmt.Sprintf("l-%d", c.seq),
				worker:    w.id,
				sweep:     ch.sweep,
				deadline:  time.Now().Add(c.cfg.TTL),
				remaining: make(map[int]bool, len(ch.jobs)),
			}
			for _, j := range ch.jobs {
				l.remaining[j] = true
			}
			c.leases[l.id] = l
			w.active++
			w.leasesTotal++
			c.leasesGranted++
			c.mu.Unlock()
			return &LeaseResponse{
				LeaseID:   l.id,
				SweepID:   ch.sweep,
				Spec:      spec,
				Jobs:      append([]int(nil), ch.jobs...),
				TTLMillis: c.cfg.TTL.Milliseconds(),
			}, nil
		}
		ch := c.notify
		c.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return nil, nil
		case <-c.stop:
			t.Stop()
			return nil, nil
		}
	}
}

// complete ingests one (possibly partial) lease completion: commits every
// row, records progress against the lease, requeues rows the commit
// rejected, and propagates a worker-side failure to the sweep. Completions
// for unknown leases — expired and reassigned, or from before a
// coordinator restart — still commit (idempotence makes the duplicate
// harmless) but count as late. Only rejected jobs still outstanding on
// the worker's own live lease are requeued: any other job was never
// leased to this worker (it may not even be in the sweep's grid), or was
// requeued already when its lease expired.
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return CompleteResponse{}, errUnknownWorker{req.WorkerID}
	}
	w.lastSeen = time.Now()
	c.mu.Unlock()

	// Commit outside the lock: it takes sweep locks and does spool I/O.
	var committed int
	var rejected []int
	for _, r := range req.Rows {
		if err := c.cfg.Commit(req.SweepID, r.Job, []byte(r.Row)); err != nil {
			c.logf("cluster: worker %s: job %d of %s rejected (%v)", req.WorkerID, r.Job, req.SweepID, err)
			rejected = append(rejected, r.Job)
			continue
		}
		committed++
	}
	if req.Failed != nil {
		c.cfg.Fail(req.SweepID, req.Failed.Job, req.Failed.Cause)
	}

	c.mu.Lock()
	c.remoteRows += int64(committed)
	if w, ok := c.workers[req.WorkerID]; ok {
		w.rowsTotal += int64(committed)
		if committed > 0 {
			w.strikes = 0 // productive again: forgive past blown deadlines
		}
	}
	var requeue []int
	l, known := c.leases[req.LeaseID]
	if known && l.worker == req.WorkerID && l.sweep == req.SweepID {
		for _, j := range rejected {
			if l.remaining[j] {
				requeue = append(requeue, j)
				delete(l.remaining, j)
			}
		}
		for _, r := range req.Rows {
			delete(l.remaining, r.Job)
		}
		// A deadline extension per completion: a worker streaming partial
		// results is alive and making progress.
		l.deadline = time.Now().Add(c.cfg.TTL)
		if len(l.remaining) == 0 || req.Failed != nil {
			c.dropLeaseLocked(l)
		}
	} else {
		c.lateRows += int64(committed)
	}
	if len(requeue) > 0 {
		sort.Ints(requeue)
		c.requeueLocked(chunk{sweep: req.SweepID, jobs: requeue})
		c.leasesReassigned++
	}
	c.mu.Unlock()
	return CompleteResponse{Committed: committed, Requeued: requeue}, nil
}

// dropLeaseLocked removes a finished lease; callers hold c.mu.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	if w, ok := c.workers[l.worker]; ok && w.active > 0 {
		w.active--
	}
}

// requeueLocked puts jobs back at the front of the pending queue — they
// are the oldest work, and the re-sequencer's parked-row memory stays
// smallest when low job indices complete first. Callers hold c.mu.
func (c *Coordinator) requeueLocked(ch chunk) {
	if len(ch.jobs) == 0 {
		return
	}
	c.pending = append([]chunk{ch}, c.pending...)
	c.broadcastLocked()
}

// expire is one pass of the liveness scan: silent workers are dropped and
// their leases reassigned, blown lease deadlines are reassigned (striking
// the holder; three strikes deregisters it), and — when the last worker is
// gone — queued chunks drain to the local pool so sweeps finish no matter
// what happens to the fleet.
func (c *Coordinator) expire(now time.Time) {
	var fallback []chunk
	c.mu.Lock()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.TTL {
			delete(c.workers, id)
			c.workersExpired++
			n := c.reassignWorkerLeasesLocked(id)
			c.logf("cluster: worker %s silent for over %s; dropped (%d leases reassigned, %d workers live)",
				id, c.cfg.TTL, n, len(c.workers))
		}
	}
	for _, l := range c.leases {
		if now.After(l.deadline) {
			c.leasesExpired++
			c.leasesReassigned++
			c.requeueLocked(chunk{sweep: l.sweep, jobs: sortedJobs(l.remaining)})
			c.dropLeaseLocked(l)
			if w, ok := c.workers[l.worker]; ok {
				w.strikes++
				c.logf("cluster: lease %s (%d jobs of %s) expired on worker %s (strike %d)",
					l.id, len(l.remaining), l.sweep, l.worker, w.strikes)
				if w.strikes >= maxStrikes {
					delete(c.workers, w.id)
					c.workersExpired++
					n := c.reassignWorkerLeasesLocked(w.id)
					c.logf("cluster: worker %s dropped after %d blown leases (%d more reassigned)", w.id, maxStrikes, n)
				}
			}
		}
	}
	if len(c.workers) == 0 && len(c.pending) > 0 {
		fallback = c.pending
		c.pending = nil
		c.logf("cluster: no live workers; running %d queued chunks on the local pool", len(fallback))
	}
	c.mu.Unlock()
	for _, ch := range fallback {
		c.cfg.Fallback(ch.sweep, ch.jobs)
	}
}

// reassignWorkerLeasesLocked requeues every lease a departed worker held;
// callers hold c.mu. Returns the number of leases reassigned.
func (c *Coordinator) reassignWorkerLeasesLocked(workerID string) int {
	n := 0
	for id, l := range c.leases {
		if l.worker != workerID {
			continue
		}
		c.requeueLocked(chunk{sweep: l.sweep, jobs: sortedJobs(l.remaining)})
		delete(c.leases, id)
		c.leasesReassigned++
		n++
	}
	return n
}

func sortedJobs(set map[int]bool) []int {
	jobs := make([]int, 0, len(set))
	for j := range set {
		jobs = append(jobs, j)
	}
	sort.Ints(jobs)
	return jobs
}

// Snapshot returns the coordinator's current stats.
func (c *Coordinator) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Workers:          len(c.workers),
		PendingChunks:    len(c.pending),
		ActiveLeases:     len(c.leases),
		LeasesGranted:    c.leasesGranted,
		LeasesExpired:    c.leasesExpired,
		LeasesReassigned: c.leasesReassigned,
		WorkersExpired:   c.workersExpired,
		RemoteRows:       c.remoteRows,
		LateRows:         c.lateRows,
	}
	for _, ch := range c.pending {
		s.PendingJobs += len(ch.jobs)
	}
	now := time.Now()
	for _, w := range c.workers {
		s.PerWorker = append(s.PerWorker, WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			Pid:            w.pid,
			Version:        w.version,
			Parallel:       w.parallel,
			ActiveLeases:   w.active,
			LeasesTotal:    w.leasesTotal,
			RowsTotal:      w.rowsTotal,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(s.PerWorker, func(i, j int) bool { return s.PerWorker[i].ID < s.PerWorker[j].ID })
	return s
}
