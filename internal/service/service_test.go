package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rotorring/internal/engine"
)

// wireSpec renders a wire-format spec body for tests.
func wireSpec(t *testing.T, spec engine.SweepSpec) []byte {
	t.Helper()
	b, err := engine.EncodeWireSpec(spec)
	if err != nil {
		t.Fatalf("EncodeWireSpec: %v", err)
	}
	return b
}

// libraryJSONL runs the spec in library mode — the byte-identity reference.
func libraryJSONL(t *testing.T, spec engine.SweepSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := engine.New(engine.Workers(4)).Run(spec, engine.NewJSONLSink(&buf)); err != nil {
		t.Fatalf("library run: %v", err)
	}
	return buf.Bytes()
}

type testServer struct {
	srv  *Server
	http *httptest.Server
}

func startServer(t *testing.T, spool string, workers int) *testServer {
	t.Helper()
	srv, err := Open(spool, Workers(workers))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &testServer{srv: srv, http: ts}
}

func (ts *testServer) submit(t *testing.T, body []byte) sweepStatus {
	t.Helper()
	resp, err := http.Post(ts.http.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/sweeps: status %d: %s", resp.StatusCode, b)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return st
}

func (ts *testServer) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.http.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

func (ts *testServer) statusOf(t *testing.T, id string) sweepStatus {
	t.Helper()
	var st sweepStatus
	if err := json.Unmarshal(ts.get(t, "/v1/sweeps/"+id), &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// identitySpec is a small heterogeneous grid covering mixed topologies
// (one seeded), random placement, schedules, probes and replicas — every
// row shape the byte-identity contract must hold for.
func identitySpec() engine.SweepSpec {
	return engine.SweepSpec{
		Topologies: []engine.Topo{"ring", "grid:8x8", "rr:3"},
		Sizes:      []int{32},
		Agents:     []int{2, 4},
		Placements: []engine.Placement{engine.PlaceSingle, engine.PlaceRandom},
		Probes:     []engine.ProbeSpec{{Name: "coverage", Stride: 128}},
		Schedules:  []engine.Schedule{"none", "delay:p=0.25"},
		Replicas:   2,
		Seed:       7,
	}
}

// TestStreamByteIdentity is the tentpole contract: rows streamed by the
// service equal library-mode RunSweep bytes, at 1 worker and at 8.
func TestStreamByteIdentity(t *testing.T) {
	spec := identitySpec()
	want := libraryJSONL(t, spec)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ts := startServer(t, t.TempDir(), workers)
			st := ts.submit(t, wireSpec(t, spec))
			got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
			if !bytes.Equal(got, want) {
				t.Errorf("streamed rows differ from library bytes\n got %d bytes\nwant %d bytes", len(got), len(want))
			}
			final := ts.statusOf(t, st.ID)
			if final.State != "done" || final.Completed != final.Jobs {
				t.Errorf("after full stream: state=%s completed=%d/%d", final.State, final.Completed, final.Jobs)
			}
		})
	}
}

// TestResumeCursor proves ?from= is an exact row cursor: the tail stream
// is the byte tail of the full stream, and from=jobs yields nothing.
func TestResumeCursor(t *testing.T) {
	spec := identitySpec()
	want := libraryJSONL(t, spec)
	ts := startServer(t, t.TempDir(), 4)
	st := ts.submit(t, wireSpec(t, spec))
	full := ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(full, want) {
		t.Fatal("full stream differs from library bytes")
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	for _, from := range []int{1, st.Jobs / 2, st.Jobs - 1, st.Jobs} {
		var wantTail []byte
		for _, l := range lines[from:] {
			wantTail = append(wantTail, l...)
		}
		got := ts.get(t, fmt.Sprintf("/v1/sweeps/%s/rows?from=%d", st.ID, from))
		if !bytes.Equal(got, wantTail) {
			t.Errorf("from=%d: tail differs (%d bytes, want %d)", from, len(got), len(wantTail))
		}
	}
}

// TestWarmCacheEnlargedGrid re-runs an enlarged grid: the overlapping
// cells must come from the row cache (hits > 0, under new cell indices)
// and the full stream must still be byte-identical to a fresh library run
// of the enlarged spec.
func TestWarmCacheEnlargedGrid(t *testing.T) {
	small := engine.SweepSpec{
		Topologies: []engine.Topo{"ring", "rr:3"},
		Sizes:      []int{32},
		Agents:     []int{2},
		Replicas:   2,
		Seed:       7,
	}
	big := small
	big.Topologies = []engine.Topo{"grid:8x8", "ring", "rr:3"} // reshuffles cell order too
	big.Sizes = []int{32, 64}
	big.Agents = []int{2, 4}

	ts := startServer(t, t.TempDir(), 4)
	stSmall := ts.submit(t, wireSpec(t, small))
	ts.get(t, "/v1/sweeps/"+stSmall.ID+"/rows") // drain to completion

	stBig := ts.submit(t, wireSpec(t, big))
	if stBig.ID == stSmall.ID {
		t.Fatal("distinct specs mapped to one sweep id")
	}
	got := ts.get(t, "/v1/sweeps/"+stBig.ID+"/rows")
	if want := libraryJSONL(t, big); !bytes.Equal(got, want) {
		t.Errorf("warm-cache stream differs from library bytes")
	}
	final := ts.statusOf(t, stBig.ID)
	if final.CacheHits < stSmall.Jobs {
		t.Errorf("cacheHits = %d, want at least the %d overlapping jobs", final.CacheHits, stSmall.Jobs)
	}
	if final.CacheHits >= final.Jobs {
		t.Errorf("cacheHits = %d of %d jobs: the new cells were not computed", final.CacheHits, final.Jobs)
	}
}

// TestIdempotentSubmit pins content-addressed submission: identical specs
// (even spelled non-canonically) return the same sweep; different seeds do
// not.
func TestIdempotentSubmit(t *testing.T) {
	ts := startServer(t, t.TempDir(), 2)
	a := ts.submit(t, []byte(`{"v":1,"topologies":["ring"],"sizes":[32],"agents":[2],"seed":7}`))
	b := ts.submit(t, []byte(`{"v":1,"topologies":["RING"],"sizes":[32],"agents":[2],"seed":7}`))
	if a.ID != b.ID {
		t.Errorf("canonically equal specs got distinct ids %s, %s", a.ID, b.ID)
	}
	c := ts.submit(t, []byte(`{"v":1,"topologies":["ring"],"sizes":[32],"agents":[2],"seed":8}`))
	if c.ID == a.ID {
		t.Error("distinct specs share a sweep id")
	}
}

// creepProc computes its row instantly, but while the gate is armed every
// job past the allowance blocks until the gate is released. TestKillAndResume
// uses it to land a server shutdown deterministically mid-sweep no matter how
// fast the machine is: at most `allow` jobs can complete before the kill.
// Rows are a pure function of the job (cover = ring size), so library mode,
// the killed run and the resumed run all agree byte-for-byte.
var creepGate struct {
	mu      sync.Mutex
	armed   bool
	allowed int
	release chan struct{}
}

func init() {
	engine.RegisterProcess(&engine.ProcessDef{Name: "creep", New: newCreep})
}

func armCreepGate(allow int) {
	creepGate.mu.Lock()
	defer creepGate.mu.Unlock()
	creepGate.armed = true
	creepGate.allowed = allow
	creepGate.release = make(chan struct{})
}

func releaseCreepGate() {
	creepGate.mu.Lock()
	defer creepGate.mu.Unlock()
	if creepGate.armed {
		creepGate.armed = false
		close(creepGate.release)
	}
}

type creepProc struct {
	n       int
	covered bool
}

func newCreep(env *engine.JobEnv) (engine.Proc, error) {
	return &creepProc{n: env.Graph.NumNodes()}, nil
}

func (p *creepProc) Step()        {}
func (p *creepProc) Round() int64 { return 0 }
func (p *creepProc) Covered() int {
	if p.covered {
		return p.n
	}
	return 1
}

func (p *creepProc) RunUntilCovered(maxRounds int64) (int64, error) {
	creepGate.mu.Lock()
	blocked := creepGate.armed && creepGate.allowed == 0
	if creepGate.armed && creepGate.allowed > 0 {
		creepGate.allowed--
	}
	release := creepGate.release
	creepGate.mu.Unlock()
	if blocked {
		<-release
	}
	p.covered = true
	return int64(p.n), nil
}

// killServer shuts a server down mid-sweep and returns the watermark it
// left on disk.
func killServer(t *testing.T, ts *testServer, id string) int {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c := mustSweep(t, ts.srv, id).snapshot()
		if c.failed != "" {
			t.Fatalf("sweep failed before kill: %s", c.failed)
		}
		if c.completed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep made no progress before kill deadline")
		}
		time.Sleep(time.Millisecond)
	}
	ts.http.Close()
	ts.srv.Close()
	return mustSweep(t, ts.srv, id).snapshot().completed
}

func mustSweep(t testing.TB, srv *Server, id string) *sweepJob {
	t.Helper()
	sw, ok := srv.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s not registered", id)
	}
	return sw
}

// TestKillAndResume is the restart half of the byte-identity contract: a
// server killed mid-sweep, restarted on the same spool — with the row
// cache wiped, so resumed rows are genuinely recomputed — re-emits the
// exact remaining bytes: the full stream equals library-mode output, with
// no duplicated and no recomputed-differently rows.
func TestKillAndResume(t *testing.T) {
	// The creep gate makes the kill timing-independent: at most 5 of the 80
	// jobs can complete before the shutdown, however fast the hardware, so
	// the close always lands mid-sweep. The kill server gets a ~zero drain
	// deadline so Close abandons the gate-blocked job instead of waiting
	// out the default 30s — the closest a graceful Close comes to the
	// SIGKILL this test models (the real-SIGKILL variant is cmd/rotord's
	// TestServiceSmoke).
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{2},
		Process:    "creep",
		Replicas:   80,
		Seed:       7,
	}
	want := libraryJSONL(t, spec) // gate disarmed: runs straight through
	spool := t.TempDir()

	armCreepGate(5)
	defer releaseCreepGate()
	srv, err := Open(spool, Workers(1), DrainTimeout(time.Millisecond))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hts.Close(); srv.Close() })
	ts := &testServer{srv: srv, http: hts}
	st := ts.submit(t, wireSpec(t, spec))
	watermark := killServer(t, ts, st.ID)
	if watermark == 0 || watermark >= st.Jobs {
		t.Fatalf("kill watermark %d of %d jobs: not mid-sweep", watermark, st.Jobs)
	}

	// Free the abandoned worker (its late delivery is dropped — the row
	// handles closed with the server) and give it a beat to exit before the
	// cache wipe below, so it cannot repopulate the cache behind our back.
	releaseCreepGate()
	time.Sleep(10 * time.Millisecond)

	// Wipe the cache: the resumed rows must be recomputed, proving resume
	// correctness does not lean on the cache.
	if err := os.RemoveAll(filepath.Join(spool, "cache")); err != nil {
		t.Fatal(err)
	}

	ts2 := startServer(t, spool, 4)
	st2 := ts2.statusOf(t, st.ID)
	if st2.Completed < watermark {
		t.Errorf("restart lost the watermark: completed %d < %d", st2.Completed, watermark)
	}
	got := ts2.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("post-restart stream differs from library bytes (%d vs %d bytes)", len(got), len(want))
	}
	if gotLines, wantLines := bytes.Count(got, []byte("\n")), st.Jobs; gotLines != wantLines {
		t.Errorf("stream has %d rows, want %d (duplicate or dropped rows)", gotLines, wantLines)
	}
	// The remaining-rows view a reconnecting client would use.
	tail := ts2.get(t, fmt.Sprintf("/v1/sweeps/%s/rows?from=%d", st.ID, watermark))
	var wantTail []byte
	for _, l := range bytes.SplitAfter(want, []byte("\n"))[watermark:] {
		wantTail = append(wantTail, l...)
	}
	if !bytes.Equal(tail, wantTail) {
		t.Errorf("resumed tail differs from library tail")
	}
}

// TestPartialLineTruncation simulates a SIGKILL mid-append: a dangling
// half-row in rows.jsonl is truncated on recovery and recomputed, leaving
// the stream byte-identical.
func TestPartialLineTruncation(t *testing.T) {
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Replicas: 4, Seed: 7,
	}
	want := libraryJSONL(t, spec)
	spool := t.TempDir()
	ts := startServer(t, spool, 2)
	st := ts.submit(t, wireSpec(t, spec))
	ts.get(t, "/v1/sweeps/"+st.ID+"/rows")
	ts.http.Close()
	ts.srv.Close()

	rows := filepath.Join(spool, "sweeps", st.ID, "rows.jsonl")
	data, err := os.ReadFile(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last row in half: exactly what a kill mid-write leaves.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	partial := data[:cut+(len(data)-cut)/2]
	if err := os.WriteFile(rows, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	ts2 := startServer(t, spool, 2)
	got := ts2.get(t, "/v1/sweeps/"+st.ID+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("stream after partial-line recovery differs from library bytes")
	}
}

// TestFormatSelection exercises the sink-registry path: format=csv matches
// the engine's CSV sink byte for byte; unknown formats fail listing the
// registered names.
func TestFormatSelection(t *testing.T) {
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"}, Sizes: []int{32}, Agents: []int{2, 4}, Replicas: 2, Seed: 7,
	}
	var want bytes.Buffer
	if _, err := engine.New(engine.Workers(2)).Run(spec, engine.NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, t.TempDir(), 2)
	st := ts.submit(t, wireSpec(t, spec))
	got := ts.get(t, "/v1/sweeps/"+st.ID+"/rows?format=csv")
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("format=csv differs from engine CSV sink:\n got %q\nwant %q", got, want.Bytes())
	}

	resp, err := http.Get(ts.http.URL + "/v1/sweeps/" + st.ID + "/rows?format=parquet")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "registered:") {
		t.Errorf("unknown format: status %d body %s, want 400 listing registered sinks", resp.StatusCode, body)
	}
}

// TestHTTPErrors pins the API's failure surface.
func TestHTTPErrors(t *testing.T) {
	ts := startServer(t, t.TempDir(), 2)
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.http.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := post(`{"agents":[2],"sizes":[32]}`); code != http.StatusBadRequest || !strings.Contains(body, "version") {
		t.Errorf("unversioned spec: %d %s", code, body)
	}
	if code, body := post(`{"v":1,"topology":"ring","agents":[2],"sizes":[32]}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown field(s) topology") {
		t.Errorf("deprecated spelling: %d %s", code, body)
	}
	if code, body := post(`{"v":1,"agents":[2],"sizes":[32],"process":"psychic"}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown process") {
		t.Errorf("unknown process: %d %s", code, body)
	}

	resp, err := http.Get(ts.http.URL + "/v1/sweeps/sw-nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", resp.StatusCode)
	}

	st := ts.submit(t, []byte(`{"v":1,"topologies":["ring"],"sizes":[32],"agents":[2]}`))
	resp, err = http.Get(ts.http.URL + "/v1/sweeps/" + st.ID + "/rows?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative cursor: status %d, want 400", resp.StatusCode)
	}
}

// TestRegistriesEndpoint proves clients can introspect every registry the
// wire format draws names from.
func TestRegistriesEndpoint(t *testing.T) {
	ts := startServer(t, t.TempDir(), 1)
	var reg struct {
		V          int      `json:"v"`
		Processes  []string `json:"processes"`
		Metrics    []string `json:"metrics"`
		Topologies []string `json:"topologies"`
		Schedules  []string `json:"schedules"`
		Missions   []string `json:"missions"`
		Sinks      []string `json:"sinks"`
		Probes     []string `json:"probes"`
		Placements []string `json:"placements"`
		Pointers   []string `json:"pointers"`
		Kernels    []string `json:"kernels"`
	}
	if err := json.Unmarshal(ts.get(t, "/v1/registries"), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.V != engine.WireVersion {
		t.Errorf("registries v = %d, want %d", reg.V, engine.WireVersion)
	}
	contains := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	if !contains(reg.Processes, "rotor") || !contains(reg.Processes, "walk") {
		t.Errorf("processes %v missing built-ins", reg.Processes)
	}
	if !contains(reg.Metrics, "cover") || !contains(reg.Topologies, "ring") ||
		!contains(reg.Schedules, "delay") || !contains(reg.Sinks, "jsonl") ||
		!contains(reg.Missions, "explore") || !contains(reg.Kernels, "parallel") {
		t.Errorf("registries missing built-ins: %+v", reg)
	}
	// Every listed placement, pointer and kernel decodes in a one-cell
	// wire spec.
	for _, c := range []struct {
		field string // the wire field, with a %q verb for the name
		names []string
	}{
		{`"placements":[%q]`, reg.Placements},
		{`"pointers":[%q]`, reg.Pointers},
		{`"kernel":%q`, reg.Kernels},
	} {
		if len(c.names) == 0 {
			t.Errorf("registries list no names for %s", c.field)
		}
		for _, name := range c.names {
			body := fmt.Sprintf(`{"v":%d,"agents":[2],"sizes":[32],`+c.field+`}`, engine.WireVersion, name)
			spec, err := engine.DecodeWireSpec([]byte(body))
			if err != nil {
				t.Errorf("%s: %v", body, err)
				continue
			}
			if cells, err := spec.Cells(); err != nil || len(cells) != 1 {
				t.Errorf("%s: %d cells, %v", body, len(cells), err)
			}
		}
	}
}
