package engine

import (
	"fmt"
	"testing"

	"rotorring/internal/xrand"
)

// This file is the property-based conformance suite for the process
// registry: every registered process, on every registered topology family,
// with and without an active schedule, must satisfy the structural
// invariants the engine and the observers rely on — per-round visit
// conservation, Covered/Visits consistency, and two builds from one seed
// stepping identically. A process or schedule family added to the
// registries is picked up automatically.

// invariantTopos is one small instance per registered topology family
// (self-sized, so one spec pins one graph).
var invariantTopos = []string{
	"ring:32", "path:24", "grid:5", "torus:4", "complete:8", "star:12",
	"hypercube:3", "btree:3", "rr:3x16", "lollipop:5x7", "shuffled:grid:4",
}

// invariantSchedules is the schedule matrix: the empty string means
// unwrapped (no schedule runner at all), "none" exercises the canonical
// no-op, and the rest cover every built-in event kind plus held rounds.
var invariantSchedules = []string{
	"", SchedNone,
	"delay:p=0.25,until=24",
	"edgefail:t=6,count=2,repair=18",
	"churn:join=3@5,leave=2@11",
	"reset:t=9",
}

// buildInvariantProc constructs one job instance of a registered process on
// a topology spec, optionally behind the schedule runner. ok=false means
// the process lacks a capability the schedule needs (a legal combination to
// skip, mirroring the engine's per-job error rows).
func buildInvariantProc(t *testing.T, process, topoSpec, schedSpec string, seed uint64) (Proc, int, bool) {
	t.Helper()
	def, found := Processes.Lookup(process)
	if !found {
		t.Fatalf("process %q not registered", process)
	}
	inst, err := parseTopo(topoSpec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildInstance(inst, inst.size, GraphSeedForTest(seed, topoSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Positions come from a separate stream derived from the seed, so two
	// builds from one seed start from the same configuration and the same
	// job generator state.
	env := &JobEnv{
		Graph:     g,
		Cell:      Cell{Topology: inst.canonical, N: g.NumNodes(), K: 3, Placement: PlaceEqual, Pointer: PtrZero},
		Positions: randomPositionsForTest(g.NumNodes(), 3, xrand.New(seed^0xabcd)),
		Seed:      seed,
		RNG:       xrand.New(seed),
	}
	p, err := def.New(env)
	if err != nil {
		t.Fatalf("%s on %s: %v", process, topoSpec, err)
	}
	if schedSpec == "" {
		return p, g.NumNodes(), true
	}
	sc, err := parseSchedule(schedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sc.none() {
		return p, g.NumNodes(), true
	}
	sp, err := newScheduledProc(p, process, sc, env)
	if err != nil {
		return nil, 0, false // capability mismatch: skipped, like an error row
	}
	return sp, g.NumNodes(), true
}

// snapshotProc captures the observable state the invariants compare.
type procSnapshot struct {
	round   int64
	covered int
	agents  int64
	visits  []int64
}

func snapshot(p Proc, n int) procSnapshot {
	s := procSnapshot{
		round:   p.Round(),
		covered: p.Covered(),
		visits:  make([]int64, n),
	}
	if a, ok := measureTarget(p).(AgentCounter); ok {
		s.agents = a.NumAgents()
	}
	if v, ok := measureTarget(p).(VisitCounter); ok {
		for i := 0; i < n; i++ {
			s.visits[i] = v.Visits(i)
		}
	}
	return s
}

func (a procSnapshot) equal(b procSnapshot) bool {
	if a.round != b.round || a.covered != b.covered || a.agents != b.agents {
		return false
	}
	for i := range a.visits {
		if a.visits[i] != b.visits[i] {
			return false
		}
	}
	return true
}

// TestProcessInvariants runs the conformance matrix.
func TestProcessInvariants(t *testing.T) {
	const rounds = 32
	for _, process := range Processes.Names() {
		for _, topo := range invariantTopos {
			for _, sched := range invariantSchedules {
				name := fmt.Sprintf("%s/%s/%s", process, topo, sched)
				if sched == "" {
					name = fmt.Sprintf("%s/%s/unwrapped", process, topo)
				}
				t.Run(name, func(t *testing.T) {
					checkInvariants(t, process, topo, sched, rounds)
				})
			}
		}
	}
}

func checkInvariants(t *testing.T, process, topo, sched string, rounds int64) {
	seed := DeriveSeed(12345, hashString(process), hashString(topo), hashString(sched))
	p, nodes, ok := buildInvariantProc(t, process, topo, sched, seed)
	if !ok {
		t.Skipf("%s does not support schedule %s", process, sched)
	}

	vc, hasVisits := measureTarget(p).(VisitCounter)
	ac, hasAgents := measureTarget(p).(AgentCounter)
	if !hasVisits || !hasAgents {
		// Third-party registrations (including other tests' stub processes)
		// may not expose the optional counters; the conformance matrix
		// covers what a process implements, it does not force capabilities.
		t.Skipf("%s does not expose visit/agent counters", process)
	}

	initial := snapshot(p, nodes)
	if initial.round != 0 {
		t.Fatalf("fresh instance starts at round %d", initial.round)
	}
	trace := []procSnapshot{initial}

	// --- per-round conservation and coverage consistency ----------------
	scheduled := sched != "" && sched != SchedNone
	prevVisits := int64(0)
	for v := 0; v < nodes; v++ {
		prevVisits += vc.Visits(v)
	}
	for r := int64(0); r < rounds; r++ {
		kBefore := ac.NumAgents()
		p.Step()
		kAfter := ac.NumAgents()
		var total int64
		covered := 0
		for v := 0; v < nodes; v++ {
			x := vc.Visits(v)
			if x < 0 {
				t.Fatalf("round %d: negative visit count at node %d", p.Round(), v)
			}
			if x > 0 {
				covered++
			}
			total += x
		}
		delta := total - prevVisits
		prevVisits = total
		// Visit conservation: every moving agent produces exactly one
		// arrival. Unscheduled rounds move every agent; scheduled rounds
		// may hold agents (delta < k) and churn events add join-visits, so
		// the bound is against the larger population plus joins.
		if !scheduled {
			if delta != kAfter {
				t.Fatalf("round %d: visit delta %d != agents %d", p.Round(), delta, kAfter)
			}
		} else {
			maxK := kBefore
			if kAfter > maxK {
				maxK = kAfter
			}
			if delta < 0 || delta > 2*maxK {
				t.Fatalf("round %d: scheduled visit delta %d outside [0, %d]", p.Round(), delta, 2*maxK)
			}
		}
		// Covered()/Visits() consistency.
		if got := p.Covered(); got != covered {
			t.Fatalf("round %d: Covered() = %d but %d nodes have visits", p.Round(), got, covered)
		}
		if kAfter < 1 {
			t.Fatalf("round %d: population dropped to %d", p.Round(), kAfter)
		}
		trace = append(trace, snapshot(p, nodes))
	}

	// --- two builds from one seed step identically -----------------------
	// The engine builds every job's instance afresh, so a row is a pure
	// function of (spec, job) only if construction and stepping are.
	twin, _, _ := buildInvariantProc(t, process, topo, sched, seed)
	for r, want := range trace {
		if r > 0 {
			twin.Step()
		}
		if !snapshot(twin, nodes).equal(want) {
			t.Fatalf("round %d: a second build from the same seed diverged", r)
		}
	}
}

// GraphSeedForTest mirrors the sweep's graph-seed derivation for directly
// built instances.
func GraphSeedForTest(base uint64, spec string) uint64 {
	return graphSeedOf(base, spec)
}

// randomPositionsForTest draws k uniform positions like the runner's
// PlaceRandom.
func randomPositionsForTest(n, k int, rng *xrand.Rand) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
