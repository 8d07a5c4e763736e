package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// This file exports the engine's job model for external schedulers: a sweep
// expands to a flat list of jobs (one replica of one cell) whose seeds and
// results depend only on the spec, never on who runs them or in what order.
// Engine.Run is itself a client of this API, so a distributed scheduler (see
// internal/service) that shards the job range across machines or interleaves
// many sweeps on one pool computes exactly the rows — and, through RowBytes,
// exactly the bytes — a single-process Run would.

// ExpandedSweep is a normalized sweep with its expanded job grid and the
// sweep-scoped shared graph cache. Jobs are numbered 0..NumJobs()-1 in
// canonical order (cell index major, replica minor); any partition of that
// range across any number of JobRunners yields the same rows.
type ExpandedSweep struct {
	spec   SweepSpec
	cells  []Cell
	graphs *graphCache
}

// Expand validates and normalizes spec and expands its canonical job grid.
// It fails fast on any invalid spec — unknown registry names, malformed
// topology or schedule specs, impossible metric/schedule combinations — so
// no job of an accepted sweep can fail for spec-level reasons.
func Expand(spec SweepSpec) (*ExpandedSweep, error) {
	norm, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	return &ExpandedSweep{spec: norm, cells: norm.expand(), graphs: newGraphCache()}, nil
}

// Spec returns the normalized spec (defaults filled, names canonicalized).
func (e *ExpandedSweep) Spec() SweepSpec { return e.spec }

// NumCells returns the number of grid cells.
func (e *ExpandedSweep) NumCells() int { return len(e.cells) }

// Replicas returns the normalized replica count (>= 1).
func (e *ExpandedSweep) Replicas() int { return e.spec.Replicas }

// NumJobs returns the total job count: cells times replicas.
func (e *ExpandedSweep) NumJobs() int { return len(e.cells) * e.spec.Replicas }

// Job maps a job index to its cell and replica number.
func (e *ExpandedSweep) Job(job int) (Cell, int) {
	return e.cells[job/e.spec.Replicas], job % e.spec.Replicas
}

// JobSeed returns the derived seed of one job — a pure function of the base
// seed and the job's configuration coordinates, never of its grid index, so
// enlarging or reordering the grid preserves the seeds (and therefore the
// bytes) of every pre-existing configuration.
func (e *ExpandedSweep) JobSeed(job int) uint64 {
	c, replica := e.Job(job)
	return jobSeed(e.spec.Seed, c, replica)
}

// JobKey returns the content-address preimage of one job: a canonical
// string spelling out every input that can influence the job's row bytes
// except the cell's grid index. Two jobs — in different sweeps, different
// grid shapes, different servers — with equal JobKeys produce rows that
// differ at most in the positional "cell" field. Row caches key on (a
// digest of) this string; the "rowcache/v4" prefix versions the derivation
// so a future change to row content or seed derivation invalidates old
// entries instead of serving stale bytes.
func (e *ExpandedSweep) JobKey(job int) string {
	c, replica := e.Job(job)
	probes := make([]string, len(e.spec.Probes))
	for i, p := range e.spec.Probes {
		probes[i] = fmt.Sprintf("%s:%d", p.Name, p.Stride)
	}
	// The graph seed is derived from the base seed for seeded families
	// (rr, shuffled); folding it in keeps the key honest even under a
	// job-seed collision between two base seeds.
	var gseed uint64
	if c.inst.def.Seeded {
		gseed = graphSeedOf(e.spec.Seed, c.Spec)
	}
	return strings.Join([]string{
		// v2: the mission component joined the preimage (mission-less jobs
		// keep distinct keys from their v1 forms, which is the point of the
		// version bump — row bytes themselves are unchanged for them).
		// v3: the hold-draw stream became a pure counter-based function of
		// (schedule seed, round, node) — helddraw.go — instead of consuming
		// the sequential event stream in occupied order. Rows of schedules
		// with a hold regime (delay) changed bytes; every other row is
		// byte-identical, but the bump invalidates all cached entries rather
		// than distinguishing the two.
		// v4: restab_time measures an unscheduled cell from round 0 (the
		// lock-in time of its initial configuration) where it used to
		// write an error row, and error rows are cached like any other.
		// Every other row is byte-identical.
		"rowcache/v4",
		"topo=" + c.Topology,
		"spec=" + c.Spec,
		fmt.Sprintf("n=%d", c.N),
		fmt.Sprintf("k=%d", c.K),
		"sched=" + c.Schedule,
		"mission=" + c.Mission,
		"place=" + c.Placement.String(),
		"ptr=" + c.Pointer.String(),
		"proc=" + e.spec.Process,
		"metric=" + e.spec.Metric,
		"kernel=" + e.spec.Kernel.String(),
		fmt.Sprintf("maxrounds=%d", e.spec.MaxRounds),
		"probes=" + strings.Join(probes, ","),
		fmt.Sprintf("replica=%d", replica),
		fmt.Sprintf("seed=%d", e.JobSeed(job)),
		fmt.Sprintf("gseed=%d", gseed),
	}, "|")
}

// NewRunner returns a job runner backed by this sweep's shared graph cache.
// A runner is safe for concurrent use: every job builds its own process
// instance, so goroutines may share one runner or each make their own.
func (e *ExpandedSweep) NewRunner() *JobRunner {
	return &JobRunner{e: e}
}

// JobRunner executes jobs of one expanded sweep. Which runner executes a
// job, and on which goroutine, never affects the row: seeds come from
// JobSeed, graphs from the shared deterministic cache, and every job
// builds a fresh process instance.
type JobRunner struct {
	e *ExpandedSweep
}

// Run executes one job and returns its row.
func (r *JobRunner) Run(job int) Row {
	c, replica := r.e.Job(job)
	return r.e.runJob(c, replica)
}

// RowBytes returns the canonical serialized form of one row: the exact
// bytes the JSONL sink emits for it, trailing newline included. Every
// byte-identity contract in this repository — across worker counts, across
// the service's shards, across cache hits and server restarts — is stated
// in terms of this encoding.
func RowBytes(r Row) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeRow parses bytes produced by RowBytes. The round trip is
// byte-stable: RowBytes(DecodeRow(b)) == b for any b RowBytes produced
// (encoding/json renders float64 in shortest round-trip form), which is
// what lets the row cache store index-free rows and re-materialize them
// under a new grid position without risking a byte of drift.
func DecodeRow(b []byte) (Row, error) {
	var r Row
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&r); err != nil {
		return Row{}, fmt.Errorf("engine: decode row: %w", err)
	}
	return r, nil
}
