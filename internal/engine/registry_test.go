package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rotorring/internal/graph"
)

// beaconProc is a toy third process for registry tests: one beacon moving
// clockwise deterministically, one node per round. It implements only the
// Proc surface plus CoverRunner — no pointers, no recurrence metric.
type beaconProc struct {
	n       int
	pos     int
	visited []bool
	covered int
	round   int64
}

func newBeacon(env *JobEnv) (Proc, error) {
	n := env.Graph.NumNodes()
	b := &beaconProc{n: n, visited: make([]bool, n)}
	b.visited[0] = true
	b.covered = 1
	return b, nil
}

func (b *beaconProc) Step() {
	b.pos = (b.pos + 1) % b.n
	if !b.visited[b.pos] {
		b.visited[b.pos] = true
		b.covered++
	}
	b.round++
}

func (b *beaconProc) Round() int64 { return b.round }
func (b *beaconProc) Covered() int { return b.covered }

func (b *beaconProc) Reset() {
	b.pos, b.round, b.covered = 0, 0, 1
	for v := range b.visited {
		b.visited[v] = v == 0
	}
}

func (b *beaconProc) RunUntilCovered(maxRounds int64) (int64, error) {
	for b.covered < b.n {
		if b.round >= maxRounds {
			return b.round, fmt.Errorf("beacon: budget exhausted")
		}
		b.Step()
	}
	return b.round, nil
}

func init() {
	// Registered once at package-test init: proves a process plugs in
	// without any engine edits.
	RegisterProcess(&ProcessDef{Name: "beacon", New: newBeacon})
	RegisterProcess(&ProcessDef{Name: "noisy", Randomized: true, New: newNoisy})
}

// noisyProc is a randomized process WITHOUT a Reseeder: its behavior is
// drawn from the job RNG at construction and Reset cannot rewind it. The
// engine must not reuse such an instance across replicas, or results
// would depend on which worker ran the previous replica.
type noisyProc struct {
	n      int
	target int64
	round  int64
}

func newNoisy(env *JobEnv) (Proc, error) {
	return &noisyProc{n: env.Graph.NumNodes(), target: 1 + int64(env.RNG.Intn(1000))}, nil
}

func (p *noisyProc) Step()        { p.round++ }
func (p *noisyProc) Round() int64 { return p.round }
func (p *noisyProc) Reset()       { p.round = 0 }
func (p *noisyProc) Covered() int {
	if p.round >= p.target {
		return p.n
	}
	return 1
}

func (p *noisyProc) RunUntilCovered(maxRounds int64) (int64, error) {
	for p.Covered() < p.n {
		if p.round >= maxRounds {
			return p.round, fmt.Errorf("noisy: budget exhausted")
		}
		p.Step()
	}
	return p.round, nil
}

// TestRandomizedWithoutReseederDeterministic: a randomized registered
// process lacking Reseed must be rebuilt per replica, keeping sweep rows
// identical across worker counts (the determinism contract).
func TestRandomizedWithoutReseederDeterministic(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{16, 32},
		Agents:     []int{1},
		Process:    "noisy",
		Replicas:   4,
		Seed:       11,
	}
	rows1, err := New(Workers(1)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows8, err := New(Workers(8)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for i := range rows1 {
		if rows1[i].Err != "" {
			t.Fatalf("row %d failed: %s", i, rows1[i].Err)
		}
		if rows1[i].Value != rows8[i].Value {
			t.Errorf("row %d: value %v at 1 worker, %v at 8 workers",
				i, rows1[i].Value, rows8[i].Value)
		}
		distinct[rows1[i].Value] = true
	}
	if len(distinct) < 2 {
		t.Error("replicas of a randomized process all equal; per-replica seeds unused")
	}
}

// TestRegistryCustomProcess: a sweep runs a process the engine has never
// heard of, by name, with the pointer axis collapsed and the metric
// dispatched through capabilities.
func TestRegistryCustomProcess(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{16, 32},
		Agents:     []int{1},
		Process:    "beacon",
		Replicas:   2,
		// Pointer policies must be ignored (collapsed) for a process
		// without pointers.
		Pointers: []Pointer{PtrZero, PtrNegative},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 sizes x 1 collapsed pointer cell x 2 replicas
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("row failed: %s", r.Err)
		}
		if r.Process != "beacon" {
			t.Errorf("row process %q", r.Process)
		}
		if r.Pointer != "" {
			t.Errorf("pointer column %q for a pointer-less process", r.Pointer)
		}
		if want := float64(r.N - 1); r.Value != want {
			t.Errorf("n=%d: beacon cover %v, want %v", r.N, r.Value, want)
		}
	}

	// The recurrence metric is a capability the beacon lacks: the job
	// fails as a row, not a crash.
	rows, err = New().Run(SweepSpec{
		Topologies: []Topo{"ring"}, Sizes: []int{16}, Agents: []int{1},
		Process: "beacon", Metric: MetricReturn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0].Err, "does not measure") {
		t.Errorf("unsupported metric row: %+v", rows)
	}
}

// TestUnknownNamesRejected: unknown process/metric/probe names fail spec
// validation before any worker starts.
func TestUnknownNamesRejected(t *testing.T) {
	base := SweepSpec{Topologies: []Topo{"ring"}, Sizes: []int{16}, Agents: []int{2}}

	spec := base
	spec.Process = "teleport"
	if _, err := New().Run(spec); err == nil || !strings.Contains(err.Error(), "unknown process") {
		t.Errorf("unknown process: %v", err)
	}

	spec = base
	spec.Metric = "entropy"
	if _, err := New().Run(spec); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Errorf("unknown metric: %v", err)
	}

	spec = base
	spec.Probes = []ProbeSpec{{Name: "nope", Stride: 8}}
	if _, err := New().Run(spec); err == nil || !strings.Contains(err.Error(), "unknown probe") {
		t.Errorf("unknown probe: %v", err)
	}

	spec = base
	spec.Probes = []ProbeSpec{{Name: "coverage", Stride: 0}}
	if _, err := New().Run(spec); err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("zero stride: %v", err)
	}

	spec = base
	spec.Metric = MetricReturn
	spec.Probes = []ProbeSpec{{Name: "coverage", Stride: 8}}
	if _, err := New().Run(spec); err == nil || !strings.Contains(err.Error(), "probes require") {
		t.Errorf("probes with return metric: %v", err)
	}
}

// TestAutoBudgetRule pins the shared budget rule: 1x for deterministic
// cover runs, 4x headroom for randomized processes and recurrence metrics
// (max of the factors, not their product).
func TestAutoBudgetRule(t *testing.T) {
	g := graph.Ring(64)
	base := CoverBudget(g)
	cases := []struct {
		process, metric string
		want            int64
	}{
		{ProcRotor, MetricCover, base},
		{ProcRotor, MetricReturn, 4 * base},
		{ProcWalk, MetricCover, 4 * base},
		{ProcWalk, MetricReturn, 4 * base},
	}
	for _, c := range cases {
		if got := AutoBudget(g, c.process, c.metric); got != c.want {
			t.Errorf("AutoBudget(%s, %s) = %d, want %d", c.process, c.metric, got, c.want)
		}
	}
}

// probedSpec is a sweep with probes over both seed-dependent and
// deterministic cells.
func probedSpec() SweepSpec {
	return SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{32, 48},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceEqual, PlaceRandom},
		Pointers:   []Pointer{PtrZero},
		Replicas:   2,
		Seed:       9,
		Probes: []ProbeSpec{
			{Name: "coverage", Stride: 16},
			{Name: "histogram", Stride: 64},
		},
	}
}

// TestObservedSweepDeterministic: probes must not break the engine's core
// contract — the same observed sweep at 1 and 8 workers produces
// byte-identical JSONL (series included), for both processes.
func TestObservedSweepDeterministic(t *testing.T) {
	for _, proc := range []string{ProcRotor, ProcWalk} {
		t.Run(proc, func(t *testing.T) {
			spec := probedSpec()
			spec.Process = proc
			var a, b bytes.Buffer
			if _, err := New(Workers(1)).Run(spec, NewJSONLSink(&a)); err != nil {
				t.Fatal(err)
			}
			if _, err := New(Workers(8)).Run(spec, NewJSONLSink(&b)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("observed JSONL differs between 1 and 8 workers")
			}
			if !bytes.Contains(a.Bytes(), []byte(`"series"`)) {
				t.Error("observed rows carry no series")
			}
		})
	}
}

// TestObservedSweepSeries: the sampled series is correct — rounds at
// stride multiples plus the terminal round, coverage monotone up to n, and
// identical measured values to the unobserved sweep.
func TestObservedSweepSeries(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{4},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrNegative},
		Probes:     []ProbeSpec{{Name: "coverage", Stride: 32}},
	}
	rows, err := New(Workers(1)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows: %+v", rows)
	}
	r := rows[0]
	if len(r.Series) == 0 {
		t.Fatal("no series sampled")
	}
	last := int64(-1)
	for i, pt := range r.Series {
		if pt.Probe != "coverage" || pt.Key != "covered" {
			t.Errorf("point %d: %+v", i, pt)
		}
		if pt.Round <= last {
			t.Errorf("rounds not increasing at %d: %+v", i, r.Series)
		}
		if pt.Round%32 != 0 && pt.Round != r.Rounds {
			t.Errorf("off-stride sample at round %d (cover %d)", pt.Round, r.Rounds)
		}
		last = pt.Round
	}
	first, final := r.Series[0], r.Series[len(r.Series)-1]
	if first.Round != 0 {
		t.Errorf("series starts at round %d, want 0", first.Round)
	}
	if final.Round != r.Rounds || final.Value != 64 {
		t.Errorf("series ends (%d, %v), want (%d, 64)", final.Round, final.Value, r.Rounds)
	}

	// The observed run measures exactly what the unobserved run measures.
	bare := spec
	bare.Probes = nil
	bareRows, err := New(Workers(1)).Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if bareRows[0].Value != r.Value || bareRows[0].Rounds != r.Rounds {
		t.Errorf("observed (%v, %d) != unobserved (%v, %d)",
			r.Value, r.Rounds, bareRows[0].Value, bareRows[0].Rounds)
	}

	// CSV output keeps its fixed column set with probes attached.
	var csvBuf bytes.Buffer
	if _, err := New(Workers(1)).Run(spec, NewCSVSink(&csvBuf)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(csvBuf.Bytes(), []byte("series")) {
		t.Error("CSV sink leaked series")
	}
}

// TestDomainsProbeInSweep: the domain-count probe samples rotor jobs on
// the ring (and yields nothing for walks, rather than failing).
func TestDomainsProbeInSweep(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{48},
		Agents:     []int{3},
		Placements: []Placement{PlaceEqual},
		Probes:     []ProbeSpec{{Name: "domains", Stride: 16}},
	}
	rows, err := New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0].Series) == 0 {
		t.Error("rotor job sampled no domain counts")
	}
	for _, pt := range rows[0].Series {
		if pt.Value < 1 || pt.Value > 3 {
			t.Errorf("domain count %v out of range [1,3]", pt.Value)
		}
	}

	spec.Process = ProcWalk
	rows, err = New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Err != "" {
		t.Fatalf("walk job with domains probe failed: %s", rows[0].Err)
	}
	if len(rows[0].Series) != 0 {
		t.Errorf("walk job sampled domain counts: %+v", rows[0].Series)
	}
}
