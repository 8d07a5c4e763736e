package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rotorring/internal/engine"
)

// buildRotord compiles the real binary once per test run.
func buildRotord(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rotord")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startRotord launches the binary and returns its base URL, parsed from
// the "listening on" line the server prints for exactly this purpose.
func startRotord(t *testing.T, bin, spool string, workers int) (*exec.Cmd, string) {
	t.Helper()
	return startRotordArgs(t, bin, "-addr", "127.0.0.1:0", "-spool", spool, "-workers", fmt.Sprint(workers))
}

// startRotordArgs launches the binary with explicit flags (both roles
// announce "rotord: listening on <addr> (...)" on stdout).
func startRotordArgs(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start rotord: %v", err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("rotord exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "rotord: listening on ")
	if !ok {
		t.Fatalf("unexpected announcement line %q", line)
	}
	addr, _, _ = strings.Cut(addr, " (")
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return cmd, "http://" + addr
}

// TestServiceSmoke is the end-to-end smoke CI runs (make service-smoke):
// the real rotord binary serves a mixed-topology sweep whose streamed rows
// are byte-identical to library-mode output; SIGKILLed mid-sweep and
// restarted on the same spool, it resumes at the on-disk watermark and the
// full stream is still byte-identical.
func TestServiceSmoke(t *testing.T) {
	// Mixed topologies (grid:32x32 is self-sized at n=1024), jobs costly
	// enough that the SIGKILL lands mid-sweep at one worker.
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring", "grid:32x32"},
		Sizes:      []int{1024},
		Agents:     []int{2},
		Replicas:   40,
		Seed:       7,
	}
	var lib bytes.Buffer
	if _, err := engine.New(engine.Workers(4)).Run(spec, engine.NewJSONLSink(&lib)); err != nil {
		t.Fatalf("library run: %v", err)
	}
	want := lib.Bytes()
	wire, err := engine.EncodeWireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	bin := buildRotord(t)
	spool := t.TempDir()
	cmd, base := startRotord(t, bin, spool, 1)

	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sweeps: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Location")[len("/v1/sweeps/"):]

	// Wait for visible progress, then SIGKILL: no shutdown path runs, so
	// resume leans only on the spool (including partial-line truncation).
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n := completedRows(t, base, id); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before kill deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, base2 := startRotord(t, bin, spool, 4)
	watermark := completedRows(t, base2, id)
	jobs := len(bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")))
	if watermark >= jobs {
		t.Fatalf("watermark %d of %d jobs after restart: kill was not mid-sweep", watermark, jobs)
	}
	t.Logf("killed at watermark %d of %d jobs", watermark, jobs)

	got := getBody(t, base2, "/v1/sweeps/"+id+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("post-restart stream is not byte-identical to library output (%d vs %d bytes)", len(got), len(want))
	}
	// A resumed client's view: the stream from the watermark is the byte
	// tail of the library output.
	tail := getBody(t, base2, fmt.Sprintf("/v1/sweeps/%s/rows?from=%d", id, watermark))
	wantTail := want
	for i := 0; i < watermark; i++ {
		wantTail = wantTail[bytes.IndexByte(wantTail, '\n')+1:]
	}
	if !bytes.Equal(tail, wantTail) {
		t.Errorf("resumed tail differs from library tail (%d vs %d bytes)", len(tail), len(wantTail))
	}
}

func completedRows(t *testing.T, base, id string) int {
	t.Helper()
	var st struct {
		Completed int    `json:"completed"`
		Error     string `json:"error"`
	}
	b := getBody(t, base, "/v1/sweeps/"+id)
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("status decode: %v (%s)", err, b)
	}
	if st.Error != "" {
		t.Fatalf("sweep failed: %s", st.Error)
	}
	return st.Completed
}

func getBody(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
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

// TestChaosCancelKillSmoke is the chaos half of the end-to-end smoke
// (make chaos-smoke): the real rotord binary is SIGKILLed while a DELETE
// is canceling a running sweep — racing the kill against the cancel's
// spool removal, so the spool can land in any intermediate state (intact,
// gone, or half-removed). Whatever state it lands in, a restarted server
// must boot (quarantining what it cannot trust), answer its probes, and —
// after resubmitting the same spec — stream rows byte-identical to
// library-mode RunSweep output.
func TestChaosCancelKillSmoke(t *testing.T) {
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      []int{1024},
		Agents:     []int{2},
		Replicas:   60,
		Seed:       7,
	}
	var lib bytes.Buffer
	if _, err := engine.New(engine.Workers(4)).Run(spec, engine.NewJSONLSink(&lib)); err != nil {
		t.Fatalf("library run: %v", err)
	}
	want := lib.Bytes()
	wire, err := engine.EncodeWireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	bin := buildRotord(t)
	spool := t.TempDir()
	cmd, base := startRotord(t, bin, spool, 1)

	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sweeps: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Location")[len("/v1/sweeps/"):]

	deadline := time.Now().Add(60 * time.Second)
	for {
		if n := completedRows(t, base, id); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before cancel deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fire the cancel and the SIGKILL concurrently: the kill can land
	// before the DELETE is processed, mid-removal, or after it finishes.
	// All three outcomes must satisfy the recovery contract below.
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, base2 := startRotord(t, bin, spool, 4)
	// The restarted server is live and ready regardless of what the
	// kill-during-cancel race left in the spool.
	for _, probe := range []string{"/healthz", "/readyz"} {
		getBody(t, base2, probe)
	}

	// Re-submitting the spec must converge to byte identity whether the
	// sweep was recovered, quarantined, or fully canceled.
	resp, err = http.Post(base2+"/v1/sweeps", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("POST /v1/sweeps (resubmit): %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d", resp.StatusCode)
	}
	got := getBody(t, base2, "/v1/sweeps/"+id+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("post-kill-during-cancel stream is not byte-identical to library output (%d vs %d bytes)", len(got), len(want))
	}
}

// metricValue fetches /metrics and returns the value of the first series
// whose line starts with prefix, or -1 when the series is absent.
func metricValue(t *testing.T, base, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(getBody(t, base, "/metrics")), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			return v
		}
	}
	return -1
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterSmoke is the cluster half of the end-to-end smoke (make
// cluster-smoke): one real coordinator binary plus two real worker
// binaries run a sweep; one worker is SIGKILLed while it holds a lease,
// forcing the coordinator to reassign its unfinished jobs; the finished
// stream must still be byte-identical to library-mode output. The kill is
// deterministic: w1 joins through a reverse proxy that kills it when the
// coordinator grants it a lease, before the grant reaches it, so the
// coordinator holds a lease w1 can never complete.
func TestClusterSmoke(t *testing.T) {
	spec := engine.SweepSpec{
		Topologies: []engine.Topo{"ring", "grid:32x32"},
		Sizes:      []int{1024},
		Agents:     []int{2},
		Replicas:   40,
		Seed:       7,
	}
	var lib bytes.Buffer
	if _, err := engine.New(engine.Workers(4)).Run(spec, engine.NewJSONLSink(&lib)); err != nil {
		t.Fatalf("library run: %v", err)
	}
	want := lib.Bytes()
	jobs := len(bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")))
	wire, err := engine.EncodeWireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	bin := buildRotord(t)
	spool := t.TempDir()
	// A short lease TTL so the killed worker's lease reassigns quickly.
	_, base := startRotordArgs(t, bin,
		"-addr", "127.0.0.1:0", "-spool", spool, "-workers", "1", "-lease-ttl", "1s")
	target, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	var w1 atomic.Pointer[exec.Cmd]
	var kill sync.Once
	killed := make(chan struct{})
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path == "/v1/cluster/lease" && resp.StatusCode == http.StatusOK {
			kill.Do(func() {
				if err := w1.Load().Process.Kill(); err != nil {
					t.Errorf("kill w1: %v", err)
				}
				close(killed)
			})
		}
		return nil
	}
	front := httptest.NewServer(proxy)
	// Registered before w1 starts, so the cleanup that kills w1 runs first
	// and no long-poll of w1's holds the proxy open.
	t.Cleanup(front.Close)
	w1Cmd, w1Base := startRotordArgs(t, bin,
		"-mode", "worker", "-join", front.URL, "-name", "w1", "-workers", "2", "-addr", "127.0.0.1:0")
	w1.Store(w1Cmd)
	startRotordArgs(t, bin,
		"-mode", "worker", "-join", base, "-name", "w2", "-workers", "2", "-addr", "127.0.0.1:0")

	// The fleet forms before submission, so every chunk dispatches remote.
	waitUntil(t, 15*time.Second, "2 workers registered", func() bool {
		var health struct {
			Workers int `json:"workers"`
		}
		if err := json.Unmarshal(getBody(t, base, "/healthz"), &health); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		return health.Workers >= 2
	})

	// The two roles are distinguishable from their probes.
	var wh struct {
		Role string `json:"role"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(getBody(t, w1Base, "/healthz"), &wh); err != nil {
		t.Fatalf("decode worker healthz: %v", err)
	}
	if wh.Role != "worker" || wh.Name != "w1" {
		t.Errorf("worker healthz = %+v", wh)
	}

	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sweeps: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Location")[len("/v1/sweeps/"):]

	// w1 dies the moment it is granted a lease: its jobs must be
	// reassigned, not lost.
	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for w1 to be granted a lease")
	}
	w1Cmd.Wait()
	t.Log("killed w1 while it held a lease")

	waitUntil(t, 120*time.Second, "sweep completion after worker kill", func() bool {
		return completedRows(t, base, id) == jobs
	})
	got := getBody(t, base, "/v1/sweeps/"+id+"/rows")
	if !bytes.Equal(got, want) {
		t.Errorf("cluster stream is not byte-identical to library output (%d vs %d bytes)", len(got), len(want))
	}

	if v := metricValue(t, base, "rotord_cluster_leases_reassigned_total"); v < 1 {
		t.Errorf("rotord_cluster_leases_reassigned_total = %g, want >= 1", v)
	}
	if v := metricValue(t, base, "rotord_cluster_rows_remote_total"); v < 1 {
		t.Errorf("rotord_cluster_rows_remote_total = %g, want >= 1", v)
	}
}

// TestDefaultJobCap starts rotord with no admission flags: a two-kilobyte
// body naming 64^4 cells must get 413 from the default job cap, before any
// grid is built, while an ordinary sweep is admitted.
func TestDefaultJobCap(t *testing.T) {
	bin := buildRotord(t)
	_, base := startRotordArgs(t, bin, "-addr", "127.0.0.1:0", "-spool", t.TempDir())

	list := func(item string) string { return strings.TrimSuffix(strings.Repeat(item+",", 64), ",") }
	hugeGrid := `{"v":1,"sizes":[` + list("8") + `],"agents":[` + list("1") +
		`],"placements":[` + list(`"single"`) + `],"pointers":[` + list(`"zero"`) + `]}`
	for _, c := range []struct {
		body string
		want int
	}{
		{hugeGrid, http.StatusRequestEntityTooLarge},
		{`{"v":1,"topologies":["ring"],"sizes":[16],"agents":[2],"maxRounds":512}`, http.StatusCreated},
	} {
		resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST /v1/sweeps: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST of %d bytes: status %d, want %d: %s", len(c.body), resp.StatusCode, c.want, body)
		}
	}
}
