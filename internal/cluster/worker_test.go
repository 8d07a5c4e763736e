package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rotorring/internal/engine"
)

// TestWorkerHandler pins the worker role's own observability surface:
// /healthz names the role and coordinator, /metrics speaks Prometheus
// text format with worker-scoped counters.
func TestWorkerHandler(t *testing.T) {
	w := NewWorker(WorkerOptions{
		Coordinator: "http://coord:8080",
		Name:        "w1",
		Parallel:    2,
		Version:     "test-1",
	})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var health struct {
		Status      string `json:"status"`
		Role        string `json:"role"`
		Version     string `json:"version"`
		Name        string `json:"name"`
		Coordinator string `json:"coordinator"`
		Parallel    int    `json:"parallel"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if health.Role != "worker" || health.Status != "ok" || health.Name != "w1" ||
		health.Coordinator != "http://coord:8080" || health.Parallel != 2 || health.Version != "test-1" {
		t.Fatalf("healthz = %+v", health)
	}

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mResp.Body.Close()
	body, _ := io.ReadAll(mResp.Body)
	for _, want := range []string{
		`rotord_info{role="worker",version="test-1"} 1`,
		"rotord_worker_leases_total 0",
		"rotord_worker_rows_total 0",
		"rotord_worker_job_panics_total 0",
		"rotord_worker_reregisters_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}
	if ct := mResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

// TestWorkerExpandCacheBounded: a long-running worker does not keep every
// sweep it ever leased (each expansion holds its sweep's graph cache). More
// distinct sweep ids than the bound pass through expand; the cache never
// exceeds the bound, and a re-leased sweep expands again to the same grid.
func TestWorkerExpandCacheBounded(t *testing.T) {
	w := NewWorker(WorkerOptions{Coordinator: "http://coord:8080"})
	wire := func(seed uint64) []byte {
		b, err := engine.EncodeWireSpec(engine.SweepSpec{
			Sizes: []int{16}, Agents: []int{1, 2}, Replicas: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, err := w.expand("sweep-0", wire(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5*maxCachedSweeps; i++ {
		if _, err := w.expand(fmt.Sprintf("sweep-%d", i), wire(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if n := len(w.specs); n > maxCachedSweeps {
			t.Fatalf("after %d sweeps the cache holds %d, bound %d", i+1, n, maxCachedSweeps)
		}
	}
	again, err := w.expand("sweep-0", wire(0))
	if err != nil {
		t.Fatal(err)
	}
	if again.NumJobs() != first.NumJobs() {
		t.Fatalf("re-leased sweep expands to %d jobs, first lease %d", again.NumJobs(), first.NumJobs())
	}
}
