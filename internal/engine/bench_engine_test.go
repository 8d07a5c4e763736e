package engine

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"rotorring/internal/graph"
)

// benchJSON, when set, makes TestEmitBenchJSON measure the per-kernel step
// throughputs and the graph build-versus-cache costs and write them to the
// given path (BENCH_engine.json at the repo root via `make bench-json`).
var benchJSON = flag.String("bench-json", "", "write engine benchmark results to this JSON file")

// benchBaseline, when set, makes TestPrintBenchBaseline print the kernel
// entries of the given BENCH_engine.json as benchstat-compatible lines
// (`make bench-baseline`), so a PR can diff its `make bench-kernels` output
// against the committed trajectory with plain benchstat.
var benchBaseline = flag.String("bench-baseline", "", "print the kernel entries of this BENCH_engine.json in go-bench format")

// benchForce overrides the GOMAXPROCS guard of TestEmitBenchJSON: a
// trajectory generated on one processor understates the parallel ring
// stepper's speedup, so emission refuses by default and requires an
// explicit opt-in to commit a starved baseline.
var benchForce = flag.Bool("bench-force", false, "emit bench JSON even when GOMAXPROCS==1 (starved baseline)")

// kernelResult is one measured kernel-tier throughput (see
// KernelBenchCases).
type kernelResult struct {
	Name   string `json:"name"`
	Graph  string `json:"graph"`
	K      int64  `json:"k"`
	Rounds int64  `json:"rounds"`
	// Seconds is the best-of-reps wall time for Rounds rounds.
	Seconds      float64 `json:"seconds"`
	RoundsPerSec float64 `json:"roundsPerSec"`
	// StepsPerSec is agent-steps per second: RoundsPerSec × K.
	StepsPerSec float64 `json:"stepsPerSec"`
	// Speedup is relative to the case's generic-tier baseline (1.0 for the
	// baselines themselves).
	Speedup float64 `json:"speedup,omitempty"`
}

// graphResult is the measured graph-build-vs-cache entry: what one cold
// construction of a representative topology costs against a warm hit in
// the sweep-scoped shared cache (which is what every job after the first
// pays per (topology, size, seed) since PR 4 — before, each worker rebuilt
// its own copy).
type graphResult struct {
	Spec  string `json:"spec"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	// BuildSeconds is the best-of-reps cold construction time;
	// CachedSeconds is the mean warm cache-hit time.
	BuildSeconds  float64 `json:"buildSeconds"`
	CachedSeconds float64 `json:"cachedSeconds"`
	// Speedup is BuildSeconds / CachedSeconds: the per-job saving factor
	// for every job that shares an already-built graph.
	Speedup float64 `json:"speedup"`
}

// benchFile is the schema of BENCH_engine.json.
type benchFile struct {
	Benchmark string `json:"benchmark"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is the machine's logical core count (runtime.NumCPU);
	// GoMaxProcs is how many of them the Go scheduler was allowed to use
	// when the file was generated. The parallel ring stepper's speedup is
	// only meaningful when GoMaxProcs is above one.
	CPUs        int            `json:"cpus"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"goVersion"`
	Kernels     []kernelResult `json:"kernels"`
	Graphs      []graphResult  `json:"graphs"`
	GeneratedAt string         `json:"generatedAt"`
}

// timeIt returns the best-of-reps wall time of fn.
func timeIt(t *testing.T, reps int, fn func() error) float64 {
	t.Helper()
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// measureKernels times every kernel workload over a fixed round count
// (per-case overrides for heavyweight configurations), best of three fresh
// builds (construction excluded from the clock).
func measureKernels(t *testing.T) []kernelResult {
	t.Helper()
	const defaultRounds = 192
	out := make([]kernelResult, 0, 4)
	baseline := make(map[string]float64) // name -> rounds/sec
	for _, kc := range KernelBenchCases() {
		rounds := kc.Rounds
		if rounds == 0 {
			rounds = defaultRounds
		}
		// Best of three fresh builds; construction stays off the clock.
		var sec float64
		for rep := 0; rep < 3; rep++ {
			step, err := kc.NewStepper()
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			for i := 0; i < rounds; i++ {
				step()
			}
			if elapsed := time.Since(start).Seconds(); rep == 0 || elapsed < sec {
				sec = elapsed
			}
		}
		kr := kernelResult{
			Name:         kc.Name,
			Graph:        kc.Graph,
			K:            kc.K,
			Rounds:       int64(rounds),
			Seconds:      sec,
			RoundsPerSec: float64(rounds) / sec,
		}
		kr.StepsPerSec = kr.RoundsPerSec * float64(kc.K)
		if kc.Baseline == "" {
			kr.Speedup = 1
			baseline[kc.Name] = kr.RoundsPerSec
		} else {
			kr.Speedup = kr.RoundsPerSec / baseline[kc.Baseline]
		}
		out = append(out, kr)
	}
	return out
}

// measureGraphCache times one representative topology build against a warm
// hit in the shared graph cache.
func measureGraphCache(t *testing.T) []graphResult {
	t.Helper()
	out := make([]graphResult, 0, 2)
	for _, spec := range []Topo{"torus:192x192", "rr:4x16384"} {
		inst, err := parseTopo(string(spec))
		if err != nil {
			t.Fatal(err)
		}
		seed := graphSeedOf(1, inst.canonical)
		var g *graph.Graph
		build := timeIt(t, 3, func() error {
			var err error
			g, err = buildInstance(inst, 0, seed)
			return err
		})
		// Warm cache: every hit after the first build is one mutex-guarded
		// map lookup; average a batch so the clock resolves it.
		cache := newGraphCache()
		key := graphKey{spec: inst.canonical, seed: seed}
		if _, err := cache.get(key, func() (*graph.Graph, error) { return g, nil }); err != nil {
			t.Fatal(err)
		}
		const hits = 1 << 16
		cached := timeIt(t, 3, func() error {
			for i := 0; i < hits; i++ {
				if _, err := cache.get(key, func() (*graph.Graph, error) { return g, nil }); err != nil {
					return err
				}
			}
			return nil
		}) / hits
		out = append(out, graphResult{
			Spec:          inst.canonical,
			Nodes:         g.NumNodes(),
			Edges:         g.NumEdges(),
			BuildSeconds:  build,
			CachedSeconds: cached,
			Speedup:       build / cached,
		})
	}
	return out
}

// TestEmitBenchJSON records the perf trajectory. It is a no-op unless
// -bench-json is set, so the regular test suite stays fast.
func TestEmitBenchJSON(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("enable with -bench-json <path>")
	}
	if runtime.GOMAXPROCS(0) == 1 && !*benchForce {
		// A one-processor run starves the parallel ring stepper, which then
		// degrades to serial; committing such a trajectory as the baseline
		// misstates its speedup. Refuse unless explicitly overridden.
		t.Fatal("refusing to emit bench JSON with GOMAXPROCS=1: the parallel ring stepper would be " +
			"measured starved (set GOMAXPROCS>=4, as the CI bench job does, or pass -bench-force " +
			"to record a starved baseline deliberately)")
	}

	out := benchFile{
		Benchmark:   "EngineKernels",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	out.Kernels = measureKernels(t)
	out.Graphs = measureGraphCache(t)

	f, err := os.Create(*benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: cpus=%d gomaxprocs=%d", *benchJSON, out.CPUs, out.GoMaxProcs)
	for _, kr := range out.Kernels {
		t.Logf("  kernel %-20s %s k=%-6d  %.3e steps/s  speedup %.2fx",
			kr.Name, kr.Graph, kr.K, kr.StepsPerSec, kr.Speedup)
	}
	for _, gr := range out.Graphs {
		t.Logf("  graph  %-13s %d nodes  build %.2e s  cached %.2e s  speedup %.0fx",
			gr.Spec, gr.Nodes, gr.BuildSeconds, gr.CachedSeconds, gr.Speedup)
	}
}

// TestPrintBenchBaseline converts the committed BENCH_engine.json kernel
// entries into go-bench formatted lines on stdout, so
// `benchstat <(make -s bench-baseline) new.txt` compares a PR's
// `make bench-kernels` run against the committed trajectory. A no-op
// unless -bench-baseline is set.
func TestPrintBenchBaseline(t *testing.T) {
	if *benchBaseline == "" {
		t.Skip("enable with -bench-baseline <path>")
	}
	data, err := os.ReadFile(*benchBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Kernels) == 0 {
		t.Fatalf("%s has no kernel entries; regenerate with make bench-json", *benchBaseline)
	}
	// Mirror the testing package's name suffix (-GOMAXPROCS unless 1) for
	// the environment the comparison run will use — the current one, not
	// whatever generated the JSON — so benchstat matches the names that a
	// `make bench-kernels` in the same shell produces.
	suffix := ""
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		suffix = fmt.Sprintf("-%d", procs)
	}
	for _, kr := range f.Kernels {
		nsPerRound := kr.Seconds / float64(kr.Rounds) * 1e9
		fmt.Fprintf(os.Stdout, "BenchmarkKernel/%s%s \t%8d\t%12.0f ns/op\t%14.0f steps/sec\n",
			kr.Name, suffix, kr.Rounds, nsPerRound, kr.StepsPerSec)
	}
}
