package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Handler returns the coordinator's wire-protocol endpoints. The sweep
// service mounts it under its /v1 API, so workers join through the same
// listener clients use.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/lease", c.handleLease)
	mux.HandleFunc("POST /v1/cluster/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
	return mux
}

func clusterError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxControlBody caps the request bodies of register, heartbeat and lease,
// which carry a worker's name and ids only. /complete is not capped here:
// its body carries finished rows, which a stride-1 probe series can make
// many megabytes long.
const maxControlBody = 64 << 10

// decodeBody decodes r's JSON body into v. It answers 400 to a body that
// does not decode and, when limit > 0, 413 to one longer than limit bytes,
// without reading past the limit.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			clusterError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", limit)
			return false
		}
		clusterError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req, maxControlBody) {
		return
	}
	clusterJSON(w, http.StatusOK, c.register(req))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req, maxControlBody) {
		return
	}
	if !c.heartbeat(req.WorkerID) {
		clusterError(w, http.StatusNotFound, "unknown worker %q (re-register)", req.WorkerID)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req, maxControlBody) {
		return
	}
	resp, err := c.grant(req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	var unknown errUnknownWorker
	if errors.As(err, &unknown) {
		clusterError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		clusterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	clusterJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req, 0) {
		return
	}
	resp, err := c.complete(req)
	var unknown errUnknownWorker
	if errors.As(err, &unknown) {
		clusterError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		clusterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	clusterJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	snap := c.Snapshot()
	workers := snap.PerWorker
	if workers == nil {
		workers = []WorkerStatus{}
	}
	clusterJSON(w, http.StatusOK, WorkersResponse{Workers: workers})
}
