package service

// Cluster-mode integration suite: in-process cluster.Workers joined to a
// httptest coordinator, proving the distributed path preserves the byte-
// identity contract — including through forced lease reassignment after a
// worker "dies" (goes silent holding a lease) and through total fleet
// loss (fallback to the local pool).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rotorring/internal/cluster"
	"rotorring/internal/engine"
)

// startClusterServer is startServer with extra service options (LeaseTTL).
func startClusterServer(t *testing.T, workers int, opts ...Option) *testServer {
	t.Helper()
	srv, err := Open(t.TempDir(), append([]Option{Workers(workers)}, opts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &testServer{srv: srv, http: ts}
}

// startWorkers runs n in-process cluster workers against the coordinator
// and blocks until all are registered (visible in /healthz).
func startWorkers(t *testing.T, ts *testServer, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: ts.http.URL,
			Name:        fmt.Sprintf("w%d", i+1),
			Parallel:    2,
			Version:     "test",
		})
		go w.Run(ctx)
	}
	waitLiveWorkers(t, ts, n)
}

// waitLiveWorkers polls /healthz until the coordinator reports n
// registered workers.
func waitLiveWorkers(t *testing.T, ts *testServer, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var health struct {
			Workers int `json:"workers"`
		}
		if err := json.Unmarshal(ts.get(t, "/healthz"), &health); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		if health.Workers >= n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d registered workers", n)
}

// postClusterJSON speaks the raw worker wire protocol, for tests that
// need a misbehaving (zombie) worker no real Worker would implement.
func postClusterJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %T: %v", body, err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterByteIdentity is the tentpole contract in cluster mode: a
// sweep sharded across three worker nodes streams bytes identical to a
// single-node library run, and the rows demonstrably came from workers.
func TestClusterByteIdentity(t *testing.T) {
	spec := identitySpec()
	spec.Replicas = 4 // widen the grid so it chunks across the fleet
	want := libraryJSONL(t, spec)

	ts := startClusterServer(t, 2)
	startWorkers(t, ts, 3)

	st := ts.submit(t, wireSpec(t, spec))
	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("cluster-streamed rows differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	final := ts.statusOf(t, st.ID)
	if final.State != "done" || final.Completed != final.Jobs {
		t.Errorf("after full stream: state=%s completed=%d/%d", final.State, final.Completed, final.Jobs)
	}
	snap := ts.srv.cluster.Snapshot()
	if snap.RemoteRows == 0 {
		t.Error("no rows came from cluster workers; the sweep ran locally")
	}
	if snap.RemoteRows < int64(final.Jobs) {
		t.Logf("note: %d of %d rows remote (rest local or cached)", snap.RemoteRows, final.Jobs)
	}
}

// TestClusterReassignment kills a worker mid-sweep: a zombie speaking the
// raw wire protocol grabs a lease and goes silent, real workers join, and
// the sweep must still finish byte-identically — through at least one
// forced lease reassignment.
func TestClusterReassignment(t *testing.T) {
	spec := identitySpec()
	spec.Replicas = 4
	want := libraryJSONL(t, spec)

	ts := startClusterServer(t, 2, LeaseTTL(250*time.Millisecond))

	// The zombie registers first so submission dispatches every chunk to
	// the cluster, then captures a lease it will never complete.
	var reg cluster.RegisterResponse
	if code := postClusterJSON(t, ts.http.URL+"/v1/cluster/register",
		cluster.RegisterRequest{Name: "zombie", Parallel: 1}, &reg); code != http.StatusOK {
		t.Fatalf("zombie register: status %d", code)
	}
	st := ts.submit(t, wireSpec(t, spec))
	var lease cluster.LeaseResponse
	if code := postClusterJSON(t, ts.http.URL+"/v1/cluster/lease",
		cluster.LeaseRequest{WorkerID: reg.WorkerID, WaitMillis: 5000}, &lease); code != http.StatusOK {
		t.Fatalf("zombie lease: status %d", code)
	}
	if len(lease.Jobs) == 0 {
		t.Fatal("zombie lease carries no jobs")
	}

	startWorkers(t, ts, 2)

	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("rows after reassignment differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	snap := ts.srv.cluster.Snapshot()
	if snap.LeasesReassigned < 1 {
		t.Errorf("LeasesReassigned = %d, want >= 1 (the zombie's lease)", snap.LeasesReassigned)
	}
	if snap.WorkersExpired < 1 {
		t.Errorf("WorkersExpired = %d, want >= 1 (the zombie)", snap.WorkersExpired)
	}
}

// TestClusterFallbackToLocal: the whole fleet (one zombie) dies with
// chunks queued for remote execution; they must drain to the local pool
// and the sweep must finish byte-identically anyway.
func TestClusterFallbackToLocal(t *testing.T) {
	spec := identitySpec()
	want := libraryJSONL(t, spec)

	ts := startClusterServer(t, 2, LeaseTTL(200*time.Millisecond))
	var reg cluster.RegisterResponse
	if code := postClusterJSON(t, ts.http.URL+"/v1/cluster/register",
		cluster.RegisterRequest{Name: "zombie"}, &reg); code != http.StatusOK {
		t.Fatalf("zombie register: status %d", code)
	}

	st := ts.submit(t, wireSpec(t, spec))
	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("fallback rows differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if final := ts.statusOf(t, st.ID); final.State != "done" {
		t.Errorf("state = %s, want done", final.State)
	}
	if snap := ts.srv.cluster.Snapshot(); snap.WorkersExpired < 1 {
		t.Errorf("WorkersExpired = %d, want >= 1", snap.WorkersExpired)
	}
}

// TestClusterOutOfGridCompletion: a registered worker completes jobs that
// lie outside the sweep's grid. The coordinator rejects them and must not
// requeue them — it never leased them — so when the fleet dies and the
// queue drains to the local pool, the pool sees only real jobs and the
// sweep finishes byte-identically.
func TestClusterOutOfGridCompletion(t *testing.T) {
	spec := identitySpec()
	want := libraryJSONL(t, spec)

	ts := startClusterServer(t, 2, LeaseTTL(200*time.Millisecond))
	var reg cluster.RegisterResponse
	if code := postClusterJSON(t, ts.http.URL+"/v1/cluster/register",
		cluster.RegisterRequest{Name: "rogue"}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	st := ts.submit(t, wireSpec(t, spec))

	var resp cluster.CompleteResponse
	if code := postClusterJSON(t, ts.http.URL+"/v1/cluster/complete", cluster.CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: "l-never-granted", SweepID: st.ID,
		Rows: []cluster.RowResult{{Job: st.Jobs + 5, Row: "{}\n"}, {Job: -1, Row: "{}\n"}},
	}, &resp); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	if resp.Committed != 0 || len(resp.Requeued) != 0 {
		t.Errorf("complete = %+v, want nothing committed or requeued", resp)
	}

	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("rows differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if final := ts.statusOf(t, st.ID); final.State != "done" {
		t.Errorf("state = %s (%s), want done", final.State, final.Error)
	}
}

// TestClusterWorkerPanicFailsSweep: a job that panics on a worker fails
// the sweep the same way a local panic would, naming the worker origin.
func TestClusterWorkerPanicFailsSweep(t *testing.T) {
	ts := startClusterServer(t, 1)
	startWorkers(t, ts, 1)

	poisoned := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{16},
		Agents:     []int{1},
		Process:    "kaboom",
		Replicas:   2,
		Seed:       7,
	}
	st := ts.submit(t, wireSpec(t, poisoned))
	failed := waitState(t, ts, st.ID, "failed")
	if !strings.Contains(failed.Error, "worker panic") || !strings.Contains(failed.Error, "poisoned process factory") {
		t.Errorf("error %q does not carry the worker panic", failed.Error)
	}
	if !strings.Contains(failed.FailedJob, "proc=kaboom") {
		t.Errorf("failedJob %q does not name the job key", failed.FailedJob)
	}
}

// TestMetricsEndpoint pins the Prometheus surface: the coordinator role
// exposes sweep, cache, throughput and cluster series in text format.
func TestMetricsEndpoint(t *testing.T) {
	ts := startClusterServer(t, 2)
	st := ts.submit(t, wireSpec(t, identitySpec()))
	ts.get(t, "/v1/sweeps/"+st.ID+"/rows") // drain to done

	body := string(ts.get(t, "/metrics"))
	for _, want := range []string{
		`rotord_info{role="coordinator"`,
		"rotord_uptime_seconds",
		"rotord_pool_workers 2",
		`rotord_sweeps{state="done"} 1`,
		`rotord_sweeps{state="running"} 0`,
		"rotord_rows_committed_total",
		"rotord_rows_per_second",
		"rotord_jobs_local_total",
		"rotord_cache_hits_total",
		"rotord_cache_misses_total",
		"rotord_cache_hit_ratio",
		"rotord_cluster_workers 0",
		"rotord_cluster_pending_jobs 0",
		"rotord_cluster_leases_active 0",
		"rotord_cluster_leases_reassigned_total 0",
		"rotord_cluster_rows_remote_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	var committed int
	for _, line := range strings.Split(body, "\n") {
		if n, _ := fmt.Sscanf(line, "rotord_rows_committed_total %d", &committed); n == 1 {
			break
		}
	}
	if st := ts.statusOf(t, st.ID); committed < st.Jobs {
		t.Errorf("rotord_rows_committed_total = %d, want >= %d", committed, st.Jobs)
	}
}

// TestHealthzReportsRole: the coordinator's liveness document names its
// role, version and registered worker count.
func TestHealthzReportsRole(t *testing.T) {
	ts := startClusterServer(t, 1)
	var health struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Version string `json:"version"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(ts.get(t, "/healthz"), &health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if health.Status != "ok" || health.Role != "coordinator" || health.Version == "" || health.Workers != 0 {
		t.Errorf("healthz = %+v", health)
	}
}

// TestListStateFilter pins GET /v1/sweeps?state=: done sweeps show under
// ?state=done, not under ?state=running, and a bogus filter is a 400.
func TestListStateFilter(t *testing.T) {
	ts := startClusterServer(t, 2)
	st := ts.submit(t, wireSpec(t, identitySpec()))
	ts.get(t, "/v1/sweeps/"+st.ID+"/rows") // drain to done

	count := func(filter string) int {
		t.Helper()
		var list struct {
			Sweeps []sweepStatus `json:"sweeps"`
		}
		if err := json.Unmarshal(ts.get(t, "/v1/sweeps"+filter), &list); err != nil {
			t.Fatalf("decode list%s: %v", filter, err)
		}
		return len(list.Sweeps)
	}
	if n := count(""); n != 1 {
		t.Errorf("unfiltered list has %d sweeps, want 1", n)
	}
	if n := count("?state=done"); n != 1 {
		t.Errorf("?state=done has %d sweeps, want 1", n)
	}
	if n := count("?state=running"); n != 0 {
		t.Errorf("?state=running has %d sweeps, want 0", n)
	}
	resp, err := http.Get(ts.http.URL + "/v1/sweeps?state=bogus")
	if err != nil {
		t.Fatalf("GET ?state=bogus: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?state=bogus: status %d, want 400", resp.StatusCode)
	}
}

// TestClusterWorkersEndpoint: GET /v1/cluster/workers lists the fleet.
func TestClusterWorkersEndpoint(t *testing.T) {
	ts := startClusterServer(t, 1)
	startWorkers(t, ts, 2)
	var resp cluster.WorkersResponse
	if err := json.Unmarshal(ts.get(t, "/v1/cluster/workers"), &resp); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	if len(resp.Workers) != 2 {
		t.Fatalf("workers = %+v, want 2", resp.Workers)
	}
	names := map[string]bool{}
	for _, w := range resp.Workers {
		names[w.Name] = true
		if w.Parallel != 2 || w.Version != "test" {
			t.Errorf("worker %s: parallel=%d version=%q", w.Name, w.Parallel, w.Version)
		}
	}
	if !names["w1"] || !names["w2"] {
		t.Errorf("worker names = %v, want w1 and w2", names)
	}
}

// TestClusterMissionByteIdentity: mission cells shard across worker nodes
// unchanged — a mission-bearing sweep streamed through a live coordinator
// plus worker fleet is byte-identical to a single-node library run, and the
// mission rows demonstrably came from workers.
func TestClusterMissionByteIdentity(t *testing.T) {
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring", "grid:6x6"},
		Sizes:      []int{24},
		Agents:     []int{2, 4},
		Placements: []engine.Placement{engine.PlaceEqual, engine.PlaceRandom},
		Schedules:  []engine.Schedule{"none", "delay:p=0.25,until=64"},
		Missions:   []engine.Mission{"explore", "patrol:horizon=512", "quiesce:window=256"},
		Replicas:   2,
		Seed:       13,
	}
	want := libraryJSONL(t, spec)
	if !bytes.Contains(want, []byte(`"mission":"patrol:horizon=512"`)) ||
		!bytes.Contains(want, []byte(`"staleness_max"`)) {
		t.Fatal("reference rows carry no mission columns; the spec lost its missions")
	}

	ts := startClusterServer(t, 2)
	startWorkers(t, ts, 3)

	st := ts.submit(t, wireSpec(t, spec))
	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("cluster-streamed mission rows differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if snap := ts.srv.cluster.Snapshot(); snap.RemoteRows == 0 {
		t.Error("no rows came from cluster workers; the sweep ran locally")
	}
}
