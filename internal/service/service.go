// Package service is the rotord sweep service: a long-running job server
// that accepts wire-format SweepSpecs over HTTP, expands them into the
// engine's canonical job grids, shards job ranges across one bounded
// worker pool shared by every in-flight sweep, and streams each sweep's
// rows back as JSONL in canonical grid order.
//
// The service adds scheduling, persistence and caching around the engine —
// never computation: every row it emits is byte-identical to what a
// single-process rotorring.RunSweep would produce for the same spec,
// across shard counts, across server restarts mid-sweep, and across row-
// cache hits. That identity rests on three engine properties: job seeds
// derive from configuration coordinates (engine.ExpandedSweep.JobSeed),
// job execution is runner-independent (engine.JobRunner), and the JSONL
// encoding of a row is a pure function of the row (engine.RowBytes).
//
// Spool layout (one directory per server):
//
//	spool/
//	  cache/<aa>/<sha256 of job key>.row   content-addressed rows, index-free
//	  sweeps/<id>/spec.json               canonical wire spec (id's preimage)
//	  sweeps/<id>/meta.json               version, spec hash, job count
//	  sweeps/<id>/rows.jsonl              canonical row stream, append-only
//	  quarantine/<id>/                    sweep dirs recovery refused to trust
//
// rows.jsonl doubles as the checkpoint: its complete-line count is the
// completed-row watermark, and a restarted server resumes every unfinished
// sweep from exactly there — re-emitting nothing, recomputing only what the
// cache cannot supply.
//
// # Failure model
//
// The server is built to survive the faults a real deployment sees (see
// DESIGN.md §5, "Failure model", for the full taxonomy → guarantee table):
//
//   - All spool I/O goes through the spoolFS seam, so disk faults (ENOSPC,
//     torn writes) are injectable deterministically in tests. A spool write
//     fault fails only the sweep it struck — status "failed" with the cause
//     — and the on-disk watermark stays exact, so a restart resumes it.
//   - Worker job execution runs under a recover barrier: a panicking
//     process, metric or topology fails its own sweep (panic value and job
//     key in the status) and never takes down other in-flight sweeps.
//   - spec.json and meta.json write crash-atomically (temp file + sync +
//     rename); recovery quarantines any sweep directory it cannot trust
//     into spool/quarantine/ and boots anyway.
//   - Submit enforces admission limits (request body, expanded job count,
//     concurrent active sweeps); Close drains under a bounded deadline.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rotorring/internal/cluster"
	"rotorring/internal/engine"
)

// metaVersion versions meta.json so a future layout change can migrate or
// reject old spools explicitly.
const metaVersion = 1

// sweepMeta is the sweeps/<id>/meta.json layout.
type sweepMeta struct {
	V        int    `json:"v"`
	ID       string `json:"id"`
	SpecHash string `json:"specHash"`
	Jobs     int    `json:"jobs"`
}

// chunkSize is the job-range shard handed to a pool worker at a time:
// large enough to amortize a queue hand-off over many jobs, small enough
// that many workers share one sweep.
const chunkSize = 32

// defaultDrainTimeout bounds how long Close waits for in-flight jobs. A
// job that outlives the deadline is abandoned, not interrupted: its late
// delivery is dropped (the sweep's append handle is already closed) and
// the on-disk watermark — always a complete-row prefix — recomputes it on
// the next Open.
const defaultDrainTimeout = 30 * time.Second

// defaultMaxBodyBytes bounds a POSTed spec; wire specs are small, and the
// limit keeps a stray upload from ballooning memory.
const defaultMaxBodyBytes = 1 << 20

// task is one sharded unit of work on the global pool: a slice of job
// indices of one sweep, in ascending order.
type task struct {
	sw   *sweepJob
	jobs []int
}

// admissionError is a Submit rejection with HTTP semantics attached: the
// handler maps it straight to its status code (413 for size limits, 429
// with Retry-After for concurrency limits).
type admissionError struct {
	status     int
	retryAfter int // seconds; 0 omits the header
	msg        string
}

func (e *admissionError) Error() string { return e.msg }

// spoolError marks a Submit failure caused by spool storage rather than
// by the client's spec; the handler answers 500, not 400.
type spoolError struct{ err error }

func (e *spoolError) Error() string { return "service: spool: " + e.err.Error() }
func (e *spoolError) Unwrap() error { return e.err }

// Server is a rotord coordinator instance: a spool directory, a row
// cache, a bounded local worker pool shared by all in-flight sweeps, and
// the cluster coordinator that shards job chunks across registered worker
// nodes (internal/cluster). With zero workers registered the cluster path
// is never taken, so a single-node server behaves exactly as before.
type Server struct {
	spool   string
	workers int
	fs      spoolFS
	cache   *rowCache
	drain   time.Duration

	cluster  *cluster.Coordinator
	leaseTTL time.Duration
	stats    serverStats

	maxBody   int64
	maxJobs   int
	maxActive int

	// ready flips true once recovery finished and the pool is live, and
	// back to false when Close begins; GET /readyz reports it.
	ready atomic.Bool

	mu          sync.Mutex
	sweeps      map[string]*sweepJob
	quarantined []string // sweep ids recovery moved to spool/quarantine/

	queue     chan task
	stop      chan struct{}
	closeOnce sync.Once
	feederWG  sync.WaitGroup
	workerWG  sync.WaitGroup
}

// Option configures a Server.
type Option func(*Server)

// Workers sets the shared pool size; n <= 0 selects GOMAXPROCS. Like the
// engine's worker knob, it can never affect any sweep's bytes, only
// wall-clock time.
func Workers(n int) Option {
	return func(s *Server) { s.workers = n }
}

// MaxBodyBytes caps the size of a POSTed spec; over-limit submissions are
// rejected with 413. n <= 0 keeps the default (1 MiB).
func MaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// MaxExpandedJobs caps how many jobs one sweep's grid may expand to;
// larger sweeps are rejected with 413 before any job runs. n <= 0 means
// unlimited.
func MaxExpandedJobs(n int) Option {
	return func(s *Server) { s.maxJobs = n }
}

// MaxActiveSweeps caps concurrently running sweeps; submissions beyond it
// are rejected with 429 and a Retry-After header. Re-submitting a spec
// that is already running is never rejected — idempotent submission wins
// over admission control. n <= 0 means unlimited.
func MaxActiveSweeps(n int) Option {
	return func(s *Server) { s.maxActive = n }
}

// DrainTimeout bounds how long Close waits for in-flight jobs before
// abandoning them (their partial work is dropped; the spool watermark
// stays exact). d <= 0 keeps the default (30s).
func DrainTimeout(d time.Duration) Option {
	return func(s *Server) { s.drain = d }
}

// LeaseTTL sets the cluster lease deadline and worker-liveness window: a
// worker silent (or sitting on a lease) for longer has its jobs
// reassigned. Like every scheduling knob it can never affect result
// bytes, only who computes them when. d <= 0 keeps the default
// (cluster.DefaultTTL).
func LeaseTTL(d time.Duration) Option {
	return func(s *Server) { s.leaseTTL = d }
}

// withFS swaps the spool storage implementation; the chaos suite uses it
// to inject deterministic disk faults.
func withFS(fs spoolFS) Option {
	return func(s *Server) { s.fs = fs }
}

// Open starts a server over the given spool directory, creating it if
// needed and recovering every sweep a previous server left behind:
// finished sweeps become immediately streamable, unfinished ones resume
// computing from their completed-row watermark, and directories recovery
// cannot decode are quarantined (moved aside, logged, boot continues).
func Open(spool string, opts ...Option) (*Server, error) {
	s := &Server{
		spool:   spool,
		fs:      osFS{},
		drain:   defaultDrainTimeout,
		maxBody: defaultMaxBodyBytes,
		sweeps:  make(map[string]*sweepJob),
		queue:   make(chan task),
		stop:    make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.drain <= 0 {
		s.drain = defaultDrainTimeout
	}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBodyBytes
	}
	s.stats.start = time.Now()
	cache, err := newRowCache(filepath.Join(spool, "cache"), s.fs)
	if err != nil {
		return nil, err
	}
	s.cache = cache
	if err := s.fs.MkdirAll(s.sweepsDir()); err != nil {
		return nil, fmt.Errorf("service: spool: %w", err)
	}
	// The cluster coordinator exists on every server — a worker-less
	// cluster dispatches nothing, so plain single-node deployments pay one
	// idle expiry ticker and nothing else. It must be live before recovery:
	// recovered sweeps start feeding (and therefore dispatching) immediately.
	s.cluster = cluster.NewCoordinator(cluster.Config{
		TTL:      s.leaseTTL,
		Commit:   s.commitRemote,
		Fail:     s.failRemote,
		Runnable: s.sweepRunnable,
		SpecOf:   s.sweepSpec,
		Fallback: s.runLocal,
		Logf:     log.Printf,
	})
	for i := 0; i < s.workers; i++ {
		s.workerWG.Add(1)
		go s.workerLoop()
	}
	if err := s.recoverSpool(); err != nil {
		s.Close()
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

func (s *Server) sweepsDir() string     { return filepath.Join(s.spool, "sweeps") }
func (s *Server) quarantineDir() string { return filepath.Join(s.spool, "quarantine") }

// NumWorkers returns the shared pool size.
func (s *Server) NumWorkers() int { return s.workers }

// Quarantined returns the sweep ids recovery moved to spool/quarantine/.
func (s *Server) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.quarantined))
	copy(out, s.quarantined)
	return out
}

// Close stops scheduling and waits — up to the drain deadline — for
// in-flight work to finish. Sweeps that have not finished stay resumable:
// their watermark is on disk, and the next Open picks them up. A job still
// running at the deadline is abandoned: its append handle is closed out
// from under it, and deliver drops rows once the handle is gone, so the
// late delivery is harmless. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.ready.Store(false)
		s.cluster.Close()
		close(s.stop)
		s.feederWG.Wait()
		close(s.queue)
		drained := make(chan struct{})
		go func() {
			s.workerWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(s.drain):
			log.Printf("service: close: drain deadline (%s) passed with jobs in flight; abandoning them (spool watermark stays exact)", s.drain)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, sw := range s.sweeps {
			sw.mu.Lock()
			if sw.rows != nil {
				sw.rows.Close()
				sw.rows = nil
			}
			sw.mu.Unlock()
		}
	})
}

// writeFileAtomic makes a crash-atomic file write through the spool seam:
// temp file in the same directory, write, sync, close, rename. A kill at
// any point leaves either the old content (or nothing) or the complete new
// content — never a zero-byte or half-written file.
func writeFileAtomic(fs spoolFS, path string, data []byte) error {
	tmp, err := fs.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func() { fs.Remove(tmp.Name()) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		cleanup()
		return err
	}
	return nil
}

// activeSweepsLocked counts running sweeps; callers hold s.mu.
func (s *Server) activeSweepsLocked() int {
	n := 0
	for _, sw := range s.sweeps {
		if sw.state() == "running" {
			n++
		}
	}
	return n
}

// Submit registers a sweep from wire-format spec bytes and starts (or
// finds) it. Submission is idempotent by content: the sweep id is derived
// from the canonical encoding's SHA-256, so re-POSTing an identical spec
// returns the running (or finished) sweep instead of duplicating work.
// Re-submitting a canceled spec starts it over from scratch.
func (s *Server) Submit(wire []byte) (sw *sweepJob, created bool, err error) {
	if s.maxBody > 0 && int64(len(wire)) > s.maxBody {
		return nil, false, &admissionError{
			status: 413,
			msg:    fmt.Sprintf("spec exceeds the %d-byte request limit", s.maxBody),
		}
	}
	spec, err := engine.DecodeWireSpec(wire)
	if err != nil {
		return nil, false, err
	}
	canonical, err := engine.EncodeWireSpec(spec)
	if err != nil {
		return nil, false, err
	}
	sum := sha256.Sum256(canonical)
	hash := hex.EncodeToString(sum[:])
	id := "sw-" + hash[:16]

	s.mu.Lock()
	if existing, ok := s.sweeps[id]; ok {
		if existing.state() != "canceled" {
			s.mu.Unlock()
			return existing, false, nil
		}
		// A canceled tombstone: forget it so the resubmission starts the
		// sweep over (its spool directory is already gone).
		delete(s.sweeps, id)
	}
	if s.maxActive > 0 && s.activeSweepsLocked() >= s.maxActive {
		s.mu.Unlock()
		return nil, false, &admissionError{
			status:     429,
			retryAfter: 5,
			msg:        fmt.Sprintf("at the limit of %d active sweeps; retry when one finishes", s.maxActive),
		}
	}
	s.mu.Unlock()

	// Count before expanding: a body of a few kilobytes can name a grid
	// far too large to build.
	if s.maxJobs > 0 {
		jobs, err := spec.NumJobs()
		if err != nil {
			return nil, false, err
		}
		if jobs > s.maxJobs {
			return nil, false, &admissionError{
				status: 413,
				msg:    fmt.Sprintf("spec expands to %d jobs, over the limit of %d", jobs, s.maxJobs),
			}
		}
	}
	exp, err := engine.Expand(spec)
	if err != nil {
		return nil, false, err
	}
	sw = s.newSweepJob(id, filepath.Join(s.sweepsDir(), id), hash, canonical, exp)
	if err := s.fs.MkdirAll(sw.dir); err != nil {
		return nil, false, &spoolError{err}
	}
	// Crash-atomic spec and meta writes: a kill between directory creation
	// and these renames leaves a dir without a complete meta.json, which
	// recovery quarantines — never a zero-byte file that poisons boots.
	if err := writeFileAtomic(s.fs, filepath.Join(sw.dir, "spec.json"), canonical); err != nil {
		return nil, false, &spoolError{err}
	}
	meta, err := json.Marshal(sweepMeta{V: metaVersion, ID: id, SpecHash: hash, Jobs: exp.NumJobs()})
	if err != nil {
		return nil, false, err
	}
	if err := writeFileAtomic(s.fs, filepath.Join(sw.dir, "meta.json"), meta); err != nil {
		return nil, false, &spoolError{err}
	}
	watermark, err := sw.openRows()
	if err != nil {
		return nil, false, &spoolError{err}
	}
	sw.completed = watermark

	s.mu.Lock()
	if racing, ok := s.sweeps[id]; ok {
		// A concurrent identical submission won the registration; the
		// spool files both sides wrote are identical by construction.
		s.mu.Unlock()
		sw.mu.Lock()
		if sw.rows != nil {
			sw.rows.Close()
		}
		sw.mu.Unlock()
		return racing, false, nil
	}
	s.sweeps[id] = sw
	s.mu.Unlock()

	s.startSweep(sw)
	return sw, true, nil
}

// Sweep returns a registered sweep by id.
func (s *Server) Sweep(id string) (*sweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// SweepIDs lists the registered sweep ids, sorted.
func (s *Server) SweepIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Cancel cancels a sweep: scheduling stops, parked rows drop, streams end
// with a cancellation error, and the spool directory is removed. The id
// stays registered as a "canceled" tombstone so status queries keep
// answering; re-submitting the same spec starts it over. Canceling a
// finished sweep deletes its results; canceling twice is a no-op.
func (s *Server) Cancel(sw *sweepJob) error {
	if sw.cancel() {
		return nil
	}
	if err := s.fs.RemoveAll(sw.dir); err != nil {
		return &spoolError{err}
	}
	return nil
}

// recoverSpool reloads every sweep directory in the spool: specs re-expand
// to the same grids (the spec hash in meta.json pins the bytes),
// rows.jsonl yields the watermark, and unfinished sweeps resume
// scheduling. A directory that fails any of those checks — undecodable or
// missing spec/meta (the residue of a kill during submission or
// cancellation), a hash mismatch, an impossible watermark — is moved to
// spool/quarantine/<id> for operator inspection and the boot continues:
// one bad directory never bricks the server.
func (s *Server) recoverSpool() error {
	entries, err := s.fs.ReadDir(s.sweepsDir())
	if err != nil {
		return fmt.Errorf("service: spool: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := filepath.Join(s.sweepsDir(), id)
		sw, err := s.loadSweep(id, dir)
		if err != nil {
			if qerr := s.quarantine(id, dir, err); qerr != nil {
				return qerr
			}
			continue
		}
		s.mu.Lock()
		s.sweeps[id] = sw
		s.mu.Unlock()
		s.startSweep(sw)
	}
	return nil
}

// newSweepJob returns the state of sweep id, spooled in dir, with the hash
// and bytes of its canonical wire spec and its expansion, before any row.
func (s *Server) newSweepJob(id, dir, hash string, wire []byte, exp *engine.ExpandedSweep) *sweepJob {
	return &sweepJob{
		id:      id,
		dir:     dir,
		hash:    hash,
		wire:    wire,
		exp:     exp,
		fs:      s.fs,
		pending: make(map[int][]byte),
		notify:  make(chan struct{}),
		stats:   &s.stats,
	}
}

// loadSweep validates one spool directory back into a sweepJob.
func (s *Server) loadSweep(id, dir string) (*sweepJob, error) {
	wire, err := s.fs.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", id, err)
	}
	metaBytes, err := s.fs.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", id, err)
	}
	var meta sweepMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("service: recover %s: meta.json: %w", id, err)
	}
	if meta.V != metaVersion {
		return nil, fmt.Errorf("service: recover %s: meta version %d (this server speaks %d)", id, meta.V, metaVersion)
	}
	sum := sha256.Sum256(wire)
	if hash := hex.EncodeToString(sum[:]); hash != meta.SpecHash {
		return nil, fmt.Errorf("service: recover %s: spec.json does not match its recorded hash", id)
	}
	spec, err := engine.DecodeWireSpec(wire)
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", id, err)
	}
	exp, err := engine.Expand(spec)
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", id, err)
	}
	if exp.NumJobs() != meta.Jobs {
		return nil, fmt.Errorf("service: recover %s: spec expands to %d jobs, meta recorded %d", id, exp.NumJobs(), meta.Jobs)
	}
	sw := s.newSweepJob(id, dir, meta.SpecHash, wire, exp)
	watermark, err := sw.openRows()
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", id, err)
	}
	if watermark > exp.NumJobs() {
		sw.mu.Lock()
		if sw.rows != nil {
			sw.rows.Close()
			sw.rows = nil
		}
		sw.mu.Unlock()
		return nil, fmt.Errorf("service: recover %s: %d rows on disk for %d jobs", id, watermark, exp.NumJobs())
	}
	sw.completed = watermark
	return sw, nil
}

// quarantine moves an untrustworthy sweep directory to spool/quarantine/
// so the server can boot without it; the directory is preserved verbatim
// for offline inspection. A stale quarantine of the same id is replaced.
func (s *Server) quarantine(id, dir string, cause error) error {
	if err := s.fs.MkdirAll(s.quarantineDir()); err != nil {
		return fmt.Errorf("service: quarantine: %w", err)
	}
	dst := filepath.Join(s.quarantineDir(), id)
	if _, err := s.fs.ReadDir(dst); err == nil {
		if err := s.fs.RemoveAll(dst); err != nil {
			return fmt.Errorf("service: quarantine %s: %w", id, err)
		}
	}
	if err := s.fs.Rename(dir, dst); err != nil {
		return fmt.Errorf("service: quarantine %s: %w", id, err)
	}
	log.Printf("service: quarantined sweep %s (%v); inspect %s", id, cause, dst)
	s.mu.Lock()
	s.quarantined = append(s.quarantined, id)
	sort.Strings(s.quarantined)
	s.mu.Unlock()
	return nil
}

// startSweep launches the sweep's feeder, or closes the spool handle of an
// already-complete sweep.
func (s *Server) startSweep(sw *sweepJob) {
	sw.mu.Lock()
	remaining := sw.completed < sw.exp.NumJobs()
	if !remaining && sw.rows != nil {
		sw.rows.Close()
		sw.rows = nil
	}
	sw.mu.Unlock()
	if !remaining {
		return
	}
	s.feederWG.Add(1)
	go s.feed(sw)
}

// feed walks the sweep's unfinished job range once: cache hits deliver
// immediately (re-indexed to this grid), runs of misses shard into chunked
// tasks on the global pool. The walk starts at the watermark — rows below
// it are already on disk and are never recomputed or re-emitted — and
// stops early when the sweep fails or is canceled. A panic anywhere in
// scheduling (a poisoned cache entry decoding, a registry bug) fails this
// sweep only, never the server.
func (s *Server) feed(sw *sweepJob) {
	defer s.feederWG.Done()
	defer func() {
		if r := recover(); r != nil {
			sw.fail(fmt.Sprintf("panic scheduling sweep: %v", r), "")
		}
	}()
	var chunk []int
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		jobs := chunk
		chunk = nil
		// The scheduler seam: chunks go to registered cluster workers when
		// any are live, and to the local pool otherwise. Which side runs a
		// chunk can never affect its bytes — job seeds and rows are pure
		// functions of the spec — so this is a latency decision only.
		if s.cluster.Dispatch(sw.id, jobs) {
			return true
		}
		select {
		case s.queue <- task{sw: sw, jobs: jobs}:
			return true
		case <-s.stop:
			return false
		}
	}
	sw.mu.Lock()
	start := sw.completed
	sw.mu.Unlock()
	for job := start; job < sw.exp.NumJobs(); job++ {
		select {
		case <-s.stop:
			return
		default:
		}
		if !sw.runnable() {
			return
		}
		key := sw.exp.JobKey(job)
		if stored, ok := s.cache.load(key); ok {
			if b, err := reindexRow(stored, sw.exp, job); err == nil {
				if !flush() { // keep delivery order cache-friendly
					return
				}
				s.stats.cacheHits.Add(1)
				sw.deliver(job, b, true)
				continue
			}
			// An entry that decodes to garbage is corrupt, not stale:
			// delete it so the recomputed row replaces it for good.
			s.cache.remove(key)
		}
		s.stats.cacheMisses.Add(1)
		chunk = append(chunk, job)
		if len(chunk) >= chunkSize {
			if !flush() {
				return
			}
		}
	}
	flush()
}

// workerLoop is one slot of the shared pool. Each job runs under a
// recover barrier (runJob), so a panicking registry entry fails its own
// sweep and the worker moves on.
func (s *Server) workerLoop() {
	defer s.workerWG.Done()
	for t := range s.queue {
		runner := t.sw.exp.NewRunner()
		for _, job := range t.jobs {
			select {
			case <-s.stop:
				return
			default:
			}
			if !t.sw.runnable() {
				break // failed or canceled mid-task: stop burning the pool
			}
			if !s.runJob(t.sw, runner, job) {
				break
			}
		}
	}
}

// runJob executes one job under a recover barrier and reports false if it
// panicked. A panic — from a registered process, metric, topology builder
// or schedule — converts into a per-sweep failure carrying the panic value
// and the job's content-address key; other sweeps and the server itself
// never notice.
func (s *Server) runJob(sw *sweepJob, runner *engine.JobRunner, job int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			sw.fail(fmt.Sprintf("panic in job %d: %v", job, r), sw.exp.JobKey(job))
			ok = false
		}
	}()
	s.stats.localJobs.Add(1)
	row := runner.Run(job)
	b, err := engine.RowBytes(row)
	if err != nil {
		// A row the canonical codec cannot encode would also have failed
		// a library-mode JSONL sweep; surface it as a sweep failure rather
		// than dropping the job silently.
		sw.fail(fmt.Sprintf("encode row %d: %v", job, err), sw.exp.JobKey(job))
		return true
	}
	// Populate the content-addressed cache with the index-free form before
	// delivery; a failed store only costs a future recomputation, but it
	// is logged and counted, never silent.
	indexFree := row
	indexFree.Index = 0
	if ib, err := engine.RowBytes(indexFree); err == nil {
		if err := s.cache.store(sw.exp.JobKey(job), ib); err != nil {
			sw.noteCacheWriteErr(err)
		}
	}
	sw.deliver(job, b, false)
	return true
}

// reindexRow rematerializes a cached index-free row under the current
// grid: decode, restore the job's cell index, re-encode. Byte-stability of
// the round trip (pinned in the engine's tests) makes the result identical
// to a fresh computation's bytes.
func reindexRow(stored []byte, exp *engine.ExpandedSweep, job int) ([]byte, error) {
	row, err := engine.DecodeRow(stored)
	if err != nil {
		return nil, err
	}
	cell, _ := exp.Job(job)
	row.Index = cell.Index
	return engine.RowBytes(row)
}

// The four methods below are the cluster coordinator's view of the sweep
// service (cluster.Config callbacks). They must not call back into
// s.cluster — the coordinator may hold its own lock when invoking them.

// commitRemote lands one worker-computed job: the index-free bytes go to
// the content-addressed cache (exactly what a local computation would
// store) and, re-indexed under this grid, to the sweep's re-sequencer.
// deliver deduplicates by job index, so a reassigned-then-completed-twice
// job commits identical bytes twice and persists once. An error means the
// bytes do not decode as a canonical row — the coordinator reassigns the
// job rather than trusting them.
func (s *Server) commitRemote(sweepID string, job int, indexFree []byte) error {
	sw, ok := s.Sweep(sweepID)
	if !ok {
		return nil // sweep is gone (canceled and forgotten); drop silently
	}
	if job < 0 || job >= sw.exp.NumJobs() {
		return fmt.Errorf("service: remote job %d out of range (grid has %d)", job, sw.exp.NumJobs())
	}
	b, err := reindexRow(indexFree, sw.exp, job)
	if err != nil {
		return fmt.Errorf("service: remote row for job %d: %w", job, err)
	}
	if err := s.cache.store(sw.exp.JobKey(job), indexFree); err != nil {
		sw.noteCacheWriteErr(err)
	}
	sw.deliver(job, b, false)
	return nil
}

// failRemote converts a worker-side job panic into the same per-sweep
// failure a local panic produces: cause and content-address key in the
// status, watermark untouched, other sweeps unaffected.
func (s *Server) failRemote(sweepID string, job int, cause string) {
	sw, ok := s.Sweep(sweepID)
	if !ok {
		return
	}
	key := ""
	if job >= 0 && job < sw.exp.NumJobs() {
		key = sw.exp.JobKey(job)
	}
	sw.fail(fmt.Sprintf("worker panic in job %d: %s", job, cause), key)
}

// sweepRunnable reports whether a sweep still wants jobs executed.
func (s *Server) sweepRunnable(sweepID string) bool {
	sw, ok := s.Sweep(sweepID)
	return ok && sw.runnable()
}

// sweepSpec returns the canonical wire spec bytes leases embed.
func (s *Server) sweepSpec(sweepID string) ([]byte, bool) {
	sw, ok := s.Sweep(sweepID)
	if !ok {
		return nil, false
	}
	return sw.wire, true
}

// runLocal is the cluster's fallback: when the last live worker
// disappears with chunks still queued, they drain onto the local pool so
// the sweep finishes regardless of what happened to the fleet. The hand-
// off happens on its own goroutine because the local queue is unbuffered
// and this is called from the coordinator's expiry loop.
func (s *Server) runLocal(sweepID string, jobs []int) {
	sw, ok := s.Sweep(sweepID)
	if !ok {
		return
	}
	// Tracked on feederWG so Close cannot close the queue under a pending
	// hand-off: cluster.Close (which joins the expiry loop, the only
	// caller) returns before Close waits on feederWG, so the Add below
	// never races the Wait.
	s.feederWG.Add(1)
	go func() {
		defer s.feederWG.Done()
		select {
		case s.queue <- task{sw: sw, jobs: jobs}:
		case <-s.stop:
		}
	}()
}
