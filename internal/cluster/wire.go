// Package cluster turns rotord into a two-role distributed system: a
// coordinator that owns the spool, row cache, watermark and client-facing
// /v1 API, and workers that register over HTTP, heartbeat, pull leases —
// chunked job-index ranges of an expanded sweep — execute them with the
// engine's job-model API, and stream index-free row bytes back for the
// coordinator's re-sequencer to commit in canonical grid order.
//
// The protocol is safe to be sloppy with because the computation is not:
// every job's bytes are a pure function of (spec, job index) — seeds derive
// from configuration coordinates, never from placement — so a lease that is
// executed twice (a worker presumed dead that was merely slow) commits the
// same bytes twice, and the coordinator's re-sequencer deduplicates by job
// index. Leases carry deadlines; a worker that dies, hangs or stops
// heartbeating has its leases expired and their unfinished jobs reassigned,
// and a coordinator with zero live workers runs every chunk on its own
// local pool, so single-node behavior is byte-for-byte unchanged.
package cluster

import "encoding/json"

// Wire endpoints, mounted under the coordinator's /v1 API:
//
//	POST /v1/cluster/register   RegisterRequest  -> RegisterResponse
//	POST /v1/cluster/heartbeat  HeartbeatRequest -> 204 (404: re-register)
//	POST /v1/cluster/lease      LeaseRequest     -> LeaseResponse | 204
//	POST /v1/cluster/complete   CompleteRequest  -> CompleteResponse
//	GET  /v1/cluster/workers    WorkersResponse
//
// All bodies are JSON. A 404 on heartbeat/lease/complete means the
// coordinator no longer knows the worker (it expired, or the coordinator
// restarted); the worker re-registers under a fresh id and carries on.

// RegisterRequest introduces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the operator-facing worker name (metrics label, logs).
	Name string `json:"name"`
	// Pid is the worker's OS process id, for operator forensics only.
	Pid int `json:"pid"`
	// Version is the worker build's version string.
	Version string `json:"version"`
	// Parallel is how many leases the worker executes concurrently.
	Parallel int `json:"parallel"`
}

// RegisterResponse assigns the worker its id and the protocol cadence.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity for every later call.
	WorkerID string `json:"workerId"`
	// TTLMillis is the liveness window: a worker silent for longer is
	// presumed dead and its leases are reassigned.
	TTLMillis int64 `json:"ttlMillis"`
	// HeartbeatMillis is how often the worker should heartbeat (a fraction
	// of the TTL, so one dropped beat is survivable).
	HeartbeatMillis int64 `json:"heartbeatMillis"`
}

// HeartbeatRequest keeps a worker's liveness window open.
type HeartbeatRequest struct {
	WorkerID string `json:"workerId"`
}

// LeaseRequest pulls one lease; the coordinator long-polls up to
// WaitMillis before answering 204 No Content.
type LeaseRequest struct {
	WorkerID string `json:"workerId"`
	// WaitMillis bounds the long poll; the coordinator caps it.
	WaitMillis int64 `json:"waitMillis"`
}

// LeaseResponse grants one lease: a chunk of job indices of one sweep,
// with the sweep's canonical wire spec so the worker can expand the exact
// grid locally. The worker must complete (or keep partially completing)
// the lease before the deadline or the coordinator reassigns it.
type LeaseResponse struct {
	// LeaseID names this grant; completions echo it.
	LeaseID string `json:"leaseId"`
	// SweepID is the sweep the jobs belong to.
	SweepID string `json:"sweepId"`
	// Spec is the sweep's canonical wire spec (the sweep id's preimage);
	// expanding it reproduces the coordinator's job grid exactly.
	Spec json.RawMessage `json:"spec"`
	// Jobs are the job indices to execute, ascending.
	Jobs []int `json:"jobs"`
	// TTLMillis is how long the worker has before the lease expires.
	TTLMillis int64 `json:"ttlMillis"`
}

// RowResult is one finished job: the row's canonical JSONL bytes with the
// positional cell index zeroed (the coordinator re-indexes under its grid),
// exactly the form the content-addressed row cache stores.
type RowResult struct {
	Job int `json:"job"`
	// Row is the index-free engine.RowBytes output (valid UTF-8 JSON plus
	// a trailing newline), carried verbatim.
	Row string `json:"row"`
}

// JobFailure reports a job whose execution panicked on the worker; the
// coordinator fails the sweep with the cause, the same way a local panic
// would. Job is -1 when the failure was not tied to one job (the spec
// would not expand).
type JobFailure struct {
	Job   int    `json:"job"`
	Cause string `json:"cause"`
}

// CompleteRequest streams finished rows of a lease back. A worker may send
// several partial completions per lease (each refreshes its liveness); the
// lease closes when every job has been reported. Completions for a lease
// the coordinator already expired are still committed — double execution
// is harmless by construction — just no longer tracked.
type CompleteRequest struct {
	WorkerID string      `json:"workerId"`
	LeaseID  string      `json:"leaseId"`
	SweepID  string      `json:"sweepId"`
	Rows     []RowResult `json:"rows,omitempty"`
	Failed   *JobFailure `json:"failed,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Committed counts rows this request delivered to the re-sequencer
	// (rows already below the watermark still count: they were accepted).
	Committed int `json:"committed"`
	// Requeued lists the jobs of the worker's live lease whose bytes the
	// coordinator rejected (they did not decode as a canonical row); they
	// will be reassigned.
	Requeued []int `json:"requeued,omitempty"`
}

// WorkerStatus is one worker's registry entry, for operators and smoke
// tests.
type WorkerStatus struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Pid          int    `json:"pid"`
	Version      string `json:"version"`
	Parallel     int    `json:"parallel"`
	ActiveLeases int    `json:"activeLeases"`
	LeasesTotal  int64  `json:"leasesTotal"`
	RowsTotal    int64  `json:"rowsTotal"`
	// LastSeenMillis is how long ago the worker last contacted the
	// coordinator.
	LastSeenMillis int64 `json:"lastSeenMillis"`
}

// WorkersResponse is the GET /v1/cluster/workers body.
type WorkersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}
