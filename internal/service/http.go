package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rotorring/internal/engine"
	"rotorring/internal/version"
	"rotorring/probe"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/sweeps            submit a wire-format SweepSpec, get a sweep id
//	GET    /v1/sweeps            list known sweeps with status + watermark
//	                             (?state=running|done|failed|canceled filters)
//	GET    /v1/sweeps/{id}       status: jobs, completed watermark, cache hits
//	GET    /v1/sweeps/{id}/rows  stream rows in canonical order (JSONL;
//	                             ?from=N resumes at row N, ?format= selects a
//	                             registered sink format)
//	DELETE /v1/sweeps/{id}       cancel the sweep: scheduling stops, streams
//	                             end, the spool directory is removed
//	GET    /v1/registries        every name a wire spec accepts: processes,
//	                             metrics, topologies, schedules, missions,
//	                             sinks, probes, placements, pointers, kernels
//	POST   /v1/cluster/*         the worker wire protocol: register,
//	                             heartbeat, lease, complete (internal/cluster)
//	GET    /v1/cluster/workers   registered workers with lease stats
//	GET    /metrics              Prometheus text format: sweeps, pool/lease
//	                             depth, cache hit rate, rows/sec, per-worker
//	                             lease stats
//	GET    /healthz              liveness: 200 while the process serves;
//	                             reports role, version, registered workers
//	GET    /readyz               readiness: 200 once recovery finished and
//	                             the pool is live; includes quarantined ids
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/rows", s.handleRows)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/registries", s.handleRegistries)
	mux.Handle("/v1/cluster/", s.cluster.Handler())
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// httpError writes a JSON error body; the service never answers with bare
// text, so clients can always decode.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// submitError maps a Submit failure to its HTTP status: admission limits
// carry their own code (413/429 + Retry-After), spool trouble is a server
// fault (500), anything else is the client's spec (400).
func submitError(w http.ResponseWriter, err error) {
	var adm *admissionError
	if errors.As(err, &adm) {
		if adm.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(adm.retryAfter))
		}
		httpError(w, adm.status, "%s", adm.msg)
		return
	}
	var sp *spoolError
	if errors.As(err, &sp) {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpError(w, http.StatusBadRequest, "%v", err)
}

// sweepStatus is the status document of one sweep.
type sweepStatus struct {
	ID string `json:"id"`
	// State is "running", "done", "failed" or "canceled".
	State string `json:"state"`
	// Jobs is the expanded job count (cells x replicas); Cells and
	// Replicas break it down.
	Jobs     int `json:"jobs"`
	Cells    int `json:"cells"`
	Replicas int `json:"replicas"`
	// Completed is the completed-row watermark: rows [0, Completed) are
	// final, on disk, and streamable.
	Completed int `json:"completed"`
	// CacheHits counts jobs this server run served from the row cache.
	CacheHits int `json:"cacheHits"`
	// CacheWriteErrors counts row-cache stores that failed this server
	// run; the sweep's own rows are unaffected, but the failed entries
	// will recompute instead of replaying on the next overlapping sweep.
	CacheWriteErrors int `json:"cacheWriteErrors,omitempty"`
	// SpecHash is the SHA-256 of the canonical wire spec (the id's
	// preimage).
	SpecHash string `json:"specHash"`
	Error    string `json:"error,omitempty"`
	// FailedJob is the content-address key of the job whose panic or
	// encode failure failed the sweep, when the fault is job-tied.
	FailedJob string `json:"failedJob,omitempty"`
}

func (s *Server) status(sw *sweepJob) sweepStatus {
	c := sw.snapshot()
	return sweepStatus{
		ID:               sw.id,
		State:            sw.state(),
		Jobs:             sw.exp.NumJobs(),
		Cells:            sw.exp.NumCells(),
		Replicas:         sw.exp.Replicas(),
		Completed:        c.completed,
		CacheHits:        c.cacheHits,
		CacheWriteErrors: c.cacheWriteErrs,
		SpecHash:         sw.hash,
		Error:            c.failed,
		FailedJob:        c.failedJob,
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sw, created, err := s.Submit(body)
	if err != nil {
		submitError(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.id)
	writeJSON(w, code, struct {
		sweepStatus
		Created bool `json:"created"`
	}{s.status(sw), created})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := strings.ToLower(r.URL.Query().Get("state"))
	switch filter {
	case "", "running", "done", "failed", "canceled":
	default:
		httpError(w, http.StatusBadRequest, "bad state filter %q (running|done|failed|canceled)", filter)
		return
	}
	ids := s.SweepIDs()
	out := make([]sweepStatus, 0, len(ids))
	for _, id := range ids {
		if sw, ok := s.Sweep(id); ok {
			st := s.status(sw)
			if filter != "" && st.State != filter {
				continue
			}
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(sw))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if err := s.Cancel(sw); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.status(sw))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"role":    "coordinator",
		"version": version.Version,
		// workers is the registered cluster worker count, so smoke tests
		// and operators can watch the fleet form before submitting.
		"workers": s.cluster.LiveWorkers(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ready":       s.ready.Load(),
		"workers":     s.NumWorkers(),
		"quarantined": s.Quarantined(),
	}
	code := http.StatusOK
	if !s.ready.Load() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if sw.state() == "canceled" {
		httpError(w, http.StatusGone, "sweep %s was canceled; its rows are gone", sw.id)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 || v > sw.exp.NumJobs() {
			httpError(w, http.StatusBadRequest, "bad row cursor %q (want 0..%d)", q, sw.exp.NumJobs())
			return
		}
		from = v
	}
	format := strings.ToLower(r.URL.Query().Get("format"))
	if format == "" {
		format = "jsonl"
	}

	// The stream aborts when the client goes away (request context) or the
	// server shuts down; the cursor model makes reconnecting with
	// ?from=<received> lossless either way. A cancel mid-stream ends the
	// stream via streamRows' canceled check.
	stop := make(chan struct{})
	go func() {
		select {
		case <-r.Context().Done():
		case <-s.stop:
		}
		close(stop)
	}()
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if format == "jsonl" {
		// The identity path: raw stored bytes, no re-encoding anywhere
		// between the spool and the socket.
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = sw.streamRows(from, func(line []byte) error {
			if _, err := w.Write(line); err != nil {
				return err
			}
			flush()
			return nil
		}, stop)
		return
	}

	// Other formats resolve through the sink registry and replay decoded
	// rows through the chosen sink — the same code path rotorsim -format
	// uses, so a format registered once works everywhere.
	sink, err := engine.NewSink(format, w)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := sink.Begin(sw.exp.Spec(), sw.exp.NumJobs()); err != nil {
		httpError(w, http.StatusInternalServerError, "sink begin: %v", err)
		return
	}
	err = sw.streamRows(from, func(line []byte) error {
		row, err := engine.DecodeRow(line)
		if err != nil {
			return err
		}
		if err := sink.Emit(row); err != nil {
			return err
		}
		flush()
		return nil
	}, stop)
	if err == nil {
		_ = sink.End()
		flush()
	}
}

func (s *Server) handleRegistries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"v":          engine.WireVersion,
		"processes":  engine.Processes.Names(),
		"metrics":    engine.Metrics.Names(),
		"topologies": engine.Topologies.Names(),
		"schedules":  engine.Schedules.Names(),
		"missions":   engine.Missions.Names(),
		"sinks":      engine.Sinks.Names(),
		"probes":     probe.Names(),
		"placements": engine.PlacementNames(),
		"pointers":   engine.PointerNames(),
		"kernels":    engine.KernelNames(),
	})
}
