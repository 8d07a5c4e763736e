package core

import (
	"errors"
	"testing"
	"testing/quick"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// refSystem is a deliberately naive reference implementation of §1.3 used to
// cross-check the batched engine: it keeps one entry per agent and moves
// them one at a time, advancing pointers on departure.
type refSystem struct {
	g      *graph.Graph
	ptr    []int
	agents []int // one position per agent
	visits []int64
	exits  []int64
}

func newRefSystem(g *graph.Graph, ptr []int, positions []int) *refSystem {
	r := &refSystem{
		g:      g,
		ptr:    append([]int(nil), ptr...),
		agents: append([]int(nil), positions...),
		visits: make([]int64, g.NumNodes()),
		exits:  make([]int64, g.NumNodes()),
	}
	for _, v := range positions {
		r.visits[v]++
	}
	return r
}

func (r *refSystem) step() {
	// Move agents sequentially based on start-of-round positions; the
	// pointer advances at each departure, so co-located agents fan out.
	next := make([]int, len(r.agents))
	for i, v := range r.agents {
		p := r.ptr[v]
		dest := r.g.Neighbor(v, p)
		r.ptr[v] = (p + 1) % r.g.Degree(v)
		r.exits[v]++
		r.visits[dest]++
		next[i] = dest
	}
	r.agents = next
}

func (r *refSystem) counts() []int64 {
	c := make([]int64, r.g.NumNodes())
	for _, v := range r.agents {
		c[v]++
	}
	return c
}

// newTestSystem builds a System and fails the test on error.
func newTestSystem(t *testing.T, g *graph.Graph, opts ...Option) *System {
	t.Helper()
	s, err := NewSystem(g, opts...)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestEngineMatchesReferenceOnRandomConfigs(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Ring(9),
		graph.Path(7),
		graph.Grid2D(4, 3),
		graph.Complete(5),
		graph.Star(6),
		graph.CompleteBinaryTree(3),
	}
	rng := xrand.New(12345)
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				k := 1 + rng.Intn(7)
				positions := RandomPositions(g.NumNodes(), k, rng)
				ptr := PointersRandom(g, rng)
				s := newTestSystem(t, g, WithAgentsAt(positions...), WithPointers(ptr))
				ref := newRefSystem(g, ptr, positions)
				for round := 1; round <= 120; round++ {
					s.Step()
					ref.step()
					want := ref.counts()
					for v := 0; v < g.NumNodes(); v++ {
						if s.AgentsAt(v) != want[v] {
							t.Fatalf("trial %d round %d: agents at %d = %d, ref %d",
								trial, round, v, s.AgentsAt(v), want[v])
						}
						if s.Pointer(v) != ref.ptr[v] {
							t.Fatalf("trial %d round %d: pointer at %d = %d, ref %d",
								trial, round, v, s.Pointer(v), ref.ptr[v])
						}
						if s.Visits(v) != ref.visits[v] {
							t.Fatalf("trial %d round %d: visits at %d = %d, ref %d",
								trial, round, v, s.Visits(v), ref.visits[v])
						}
						if e := s.Visits(v) - s.AgentsAt(v); e != ref.exits[v] {
							t.Fatalf("trial %d round %d: exits at %d = %d, ref %d",
								trial, round, v, e, ref.exits[v])
						}
					}
				}
			}
		})
	}
}

func TestConstructionErrors(t *testing.T) {
	g := graph.Ring(5)
	if _, err := NewSystem(g); err == nil {
		t.Error("no agents accepted")
	}
	if _, err := NewSystem(g, WithAgentsAt(7)); err == nil {
		t.Error("out-of-range agent accepted")
	}
	if _, err := NewSystem(g, WithAgentsAt(0), WithPointers([]int{0, 0})); err == nil {
		t.Error("short pointer slice accepted")
	}
	if _, err := NewSystem(g, WithAgentsAt(0), WithPointers([]int{0, 0, 0, 0, 5})); err == nil {
		t.Error("invalid port accepted")
	}
	if _, err := NewSystem(g, WithAgentsAt(0), WithAgentCounts(make([]int64, 5))); err == nil {
		t.Error("conflicting placement options accepted")
	}
	if _, err := NewSystem(g, WithAgentCounts([]int64{1, -1, 0, 0, 0})); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewSystem(g, WithAgentCounts([]int64{0, 0, 0, 0, 0})); err == nil {
		t.Error("zero agents via counts accepted")
	}
}

func TestInitialState(t *testing.T) {
	g := graph.Ring(8)
	s := newTestSystem(t, g, WithAgentsAt(2, 2, 5))
	if s.NumAgents() != 3 {
		t.Fatalf("k = %d", s.NumAgents())
	}
	if s.AgentsAt(2) != 2 || s.AgentsAt(5) != 1 {
		t.Fatalf("placement wrong: %v", s.Positions())
	}
	if s.Visits(2) != 2 || s.Visits(5) != 1 || s.Visits(0) != 0 {
		t.Fatal("initial visit counters wrong")
	}
	if s.Covered() != 2 {
		t.Fatalf("covered = %d", s.Covered())
	}
	if got := s.Positions(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("Positions() = %v", got)
	}
}

func TestAgentConservation(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := graph.Ring(5 + rng.Intn(40))
		k := 1 + rng.Intn(10)
		s, err := NewSystem(g,
			WithAgentsAt(RandomPositions(g.NumNodes(), k, rng)...),
			WithPointers(PointersRandom(g, rng)))
		if err != nil {
			return false
		}
		s.Run(int64(100 + rng.Intn(200)))
		var total int64
		for v := 0; v < g.NumNodes(); v++ {
			total += s.AgentsAt(v)
		}
		return total == int64(k)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExitVisitBalance(t *testing.T) {
	// For the undelayed deployment, e_v(t+1) = n_v(t) (paper Eq. 2 with
	// D = 0): everything that was at v at the end of round t leaves in
	// round t+1. The exit counter is derived by conservation: e_v(t) =
	// n_v(t) − (agents at v after round t).
	g := graph.Grid2D(4, 4)
	rng := xrand.New(5)
	s := newTestSystem(t, g,
		WithAgentsAt(RandomPositions(16, 5, rng)...),
		WithPointers(PointersRandom(g, rng)))
	for round := 0; round < 100; round++ {
		prevVisits := make([]int64, 16)
		for v := range prevVisits {
			prevVisits[v] = s.Visits(v)
		}
		s.Step()
		for v := 0; v < 16; v++ {
			if e := s.Visits(v) - s.AgentsAt(v); e != prevVisits[v] {
				t.Fatalf("round %d: e_%d = %d, want n_%d(t-1) = %d",
					round+1, v, e, v, prevVisits[v])
			}
		}
	}
}

func TestArcTraversalLaw(t *testing.T) {
	// Paper §1.3: with ports labeled so that the initial pointer has label
	// 0, the number of traversals of arc (v,u) after any round equals
	// ceil((e_v - port_v(u)) / deg(v)). Traversals are the per-round flow
	// views summed over the run; e_v = n_v − (agents at v).
	graphs := []*graph.Graph{graph.Ring(7), graph.Complete(5), graph.Grid2D(3, 3)}
	rng := xrand.New(99)
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			ptr0 := PointersRandom(g, rng)
			s := newTestSystem(t, g,
				WithAgentsAt(RandomPositions(g.NumNodes(), 4, rng)...),
				WithPointers(ptr0))
			traversals := make([]int64, g.NumArcs())
			for _, horizon := range []int64{1, 7, 50, 200} {
				for s.Round() < horizon {
					s.Step()
					s.ForEachFlow(func(v, p int, agents int64) { traversals[g.ArcID(v, p)] += agents })
				}
				for v := 0; v < g.NumNodes(); v++ {
					d := int64(g.Degree(v))
					ev := s.Visits(v) - s.AgentsAt(v)
					for p := 0; p < g.Degree(v); p++ {
						label := (int64(p) - int64(ptr0[v]) + d) % d
						var want int64
						if ev > label {
							want = (ev - label + d - 1) / d
						}
						if got := traversals[g.ArcID(v, p)]; got != want {
							t.Fatalf("round %d node %d port %d: traversals %d, law says %d",
								horizon, v, p, got, want)
						}
					}
				}
			}
		})
	}
}

func TestSingleAgentRingCirculation(t *testing.T) {
	// All pointers clockwise: the agent laps the ring in n rounds, and the
	// pointers behind it flip, so the second lap is anticlockwise.
	const n = 10
	g := graph.Ring(n)
	s := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	for i := 1; i <= n; i++ {
		s.Step()
		want := i % n
		if s.AgentsAt(want) != 1 {
			t.Fatalf("round %d: agent not at %d (positions %v)", i, want, s.Positions())
		}
	}
	cov, err := s.RunUntilCovered(10 * n)
	if err != nil {
		t.Fatal(err)
	}
	if cov != n-1 {
		t.Fatalf("cover time = %d, want %d", cov, n-1)
	}
}

func TestCoverTimeWorstCaseSingleAgent(t *testing.T) {
	// Pointers toward the start reflect the agent back at every new node:
	// cover time is Θ(n²) (the paper cites C(R[1]) = Θ(n²) on the ring).
	for _, n := range []int{16, 32, 64} {
		g := graph.Ring(n)
		ptr, err := PointersTowardNode(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestSystem(t, g, WithAgentsAt(0), WithPointers(ptr))
		cov, err := s.RunUntilCovered(int64(4 * n * n))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(n*n/8), int64(2*n*n)
		if cov < lo || cov > hi {
			t.Errorf("n=%d: worst-case cover time %d outside [%d,%d]", n, cov, lo, hi)
		}
	}
}

func TestRunUntilCoveredBudget(t *testing.T) {
	g := graph.Ring(64)
	ptr, err := PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(0), WithPointers(ptr))
	if _, err := s.RunUntilCovered(10); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("want ErrNotCovered, got %v", err)
	}
}

func TestMonotonicityUnderDelays(t *testing.T) {
	// Lemma 1: holding more agents can never increase any visit counter.
	rng := xrand.New(31)
	g := graph.Ring(20)
	positions := RandomPositions(20, 5, rng)
	ptr := PointersRandom(g, rng)

	undelayed := newTestSystem(t, g, WithAgentsAt(positions...), WithPointers(ptr))
	delayed := newTestSystem(t, g, WithAgentsAt(positions...), WithPointers(ptr))

	held := make([]int64, 20)
	for round := 0; round < 300; round++ {
		undelayed.Step()
		for v := range held {
			held[v] = 0
		}
		// Hold a random subset of agents.
		for _, v := range delayed.Occupied() {
			if rng.Bool() {
				held[v] = int64(rng.Intn(int(delayed.AgentsAt(v)) + 1))
			}
		}
		delayed.StepHeld(held)
		for v := 0; v < 20; v++ {
			if delayed.Visits(v) > undelayed.Visits(v) {
				t.Fatalf("round %d: delayed visits at %d = %d exceed undelayed %d",
					round+1, v, delayed.Visits(v), undelayed.Visits(v))
			}
		}
	}
}

func TestMoreAgentsNeverSlower(t *testing.T) {
	// Corollary of Lemma 1 (due to [27]): with identical pointers, adding
	// an agent cannot decrease any visit counter at any time.
	rng := xrand.New(77)
	g := graph.Ring(24)
	ptr := PointersRandom(g, rng)
	base := RandomPositions(24, 4, rng)
	extra := append(append([]int(nil), base...), rng.Intn(24))

	small := newTestSystem(t, g, WithAgentsAt(base...), WithPointers(ptr))
	big := newTestSystem(t, g, WithAgentsAt(extra...), WithPointers(ptr))
	for round := 0; round < 400; round++ {
		small.Step()
		big.Step()
		for v := 0; v < 24; v++ {
			if small.Visits(v) > big.Visits(v) {
				t.Fatalf("round %d: R[k-1] visits at %d = %d exceed R[k] %d",
					round+1, v, small.Visits(v), big.Visits(v))
			}
		}
	}
}

func TestSlowdownLemmaBounds(t *testing.T) {
	// Lemma 3: τ <= C(R[k]) <= T for a delayed deployment covering at T
	// with τ fully active rounds.
	rng := xrand.New(13)
	g := graph.Ring(40)
	positions := RandomPositions(40, 4, rng)
	ptr, err := PointersNegative(g, positions)
	if err != nil {
		t.Fatal(err)
	}

	undelayed := newTestSystem(t, g, WithAgentsAt(positions...), WithPointers(ptr))
	cover, err := undelayed.RunUntilCovered(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	delayed := newTestSystem(t, g, WithAgentsAt(positions...), WithPointers(ptr))
	held := make([]int64, 40)
	for delayed.Covered() < 40 {
		for v := range held {
			held[v] = 0
		}
		// Hold everything at one random occupied node every third round.
		if delayed.Round()%3 == 0 {
			occ := delayed.Occupied()
			v := occ[rng.Intn(len(occ))]
			held[v] = delayed.AgentsAt(v)
		}
		delayed.StepHeld(held)
		if delayed.Round() > 1<<20 {
			t.Fatal("delayed deployment did not cover")
		}
	}
	tau := delayed.FullyActiveRounds()
	T := delayed.Round()
	if !(tau <= cover && cover <= T) {
		t.Fatalf("slow-down lemma violated: τ=%d, C=%d, T=%d", tau, cover, T)
	}
}

func TestStepHeldAllHeldIsNoOp(t *testing.T) {
	g := graph.Ring(10)
	s := newTestSystem(t, g, WithAgentsAt(3, 7))
	before := s.Clone()
	held := make([]int64, 10)
	held[3], held[7] = 5, 5 // over-asking is clamped
	s.StepHeld(held)
	if !s.StateEqual(before) {
		t.Fatal("holding all agents changed the configuration")
	}
	if s.Round() != 1 {
		t.Fatal("round did not advance")
	}
	if s.FullyActiveRounds() != 0 {
		t.Fatal("held round counted as fully active")
	}
}

func TestIncrementalHashMatchesFullHash(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := graph.Grid2D(3+rng.Intn(3), 3+rng.Intn(3))
		k := 1 + rng.Intn(6)
		s, err := NewSystem(g,
			WithAgentsAt(RandomPositions(g.NumNodes(), k, rng)...),
			WithPointers(PointersRandom(g, rng)))
		if err != nil {
			return false
		}
		held := make([]int64, g.NumNodes())
		for i := 0; i < 150; i++ {
			if rng.Bool() {
				s.Step()
			} else {
				for v := range held {
					held[v] = 0
				}
				for _, v := range s.Occupied() {
					held[v] = int64(rng.Intn(3))
				}
				s.StepHeld(held)
			}
			if s.ConfigHash() != s.fullHash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFullHashMatchesIncrements(t *testing.T) {
	mk := func(counts ...int64) *System {
		return newTestSystem(t, graph.Ring(4), WithAgentCounts(counts), WithPointers([]int{0, 1, 0, 1}))
	}
	// Moving one agent from node 0 to node 1 must be expressible as the
	// sum of the per-component deltas.
	h := mk(3, 0, 2, 0).fullHash()
	h += hashCnt(0, 2) - hashCnt(0, 3)
	h += hashCnt(1, 1) - hashCnt(1, 0)
	if mk(2, 1, 2, 0).fullHash() != h {
		t.Error("incremental count delta disagrees with full recomputation")
	}
	// Zero counts contribute nothing, so trailing empty nodes are free.
	if hashCnt(7, 0) != 0 {
		t.Error("zero count hashes nonzero")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := graph.Ring(12)
	s := newTestSystem(t, g, WithAgentsAt(0, 6))
	s.Run(10)
	c := s.Clone()
	if !s.StateEqual(c) || s.ConfigHash() != c.ConfigHash() {
		t.Fatal("clone differs from original")
	}
	s.Run(5)
	c.Run(5)
	if !s.StateEqual(c) {
		t.Fatal("clone diverged under identical steps")
	}
	s.Run(1)
	if s.StateEqual(c) {
		t.Fatal("clone tracked the original after divergence")
	}
}

func TestResetRestoresInitialConfiguration(t *testing.T) {
	g := graph.Ring(16)
	ptr, err := PointersTowardNode(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(3, 3, 9), WithPointers(ptr))
	fresh := s.Clone()
	s.Run(123)
	s.Reset()
	if !s.StateEqual(fresh) {
		t.Fatal("Reset did not restore configuration")
	}
	if s.Round() != 0 || s.Covered() != 2 || s.Visits(3) != 2 {
		t.Fatal("Reset did not restore counters")
	}
	if s.ConfigHash() != fresh.ConfigHash() {
		t.Fatal("Reset hash mismatch")
	}
	// The reset system must evolve identically to a fresh one.
	s.Run(50)
	fresh.Run(50)
	if !s.StateEqual(fresh) {
		t.Fatal("reset system diverged from fresh system")
	}
}

func TestFlowRecordingBalances(t *testing.T) {
	g := graph.Ring(15)
	rng := xrand.New(4)
	s := newTestSystem(t, g,
		WithAgentsAt(RandomPositions(15, 6, rng)...),
		WithPointers(PointersRandom(g, rng)))
	out := make([]int64, 15)
	exits := func(v int) int64 { return s.Visits(v) - s.AgentsAt(v) }
	for round := 0; round < 200; round++ {
		exitsBefore := make([]int64, 15)
		for v := range exitsBefore {
			exitsBefore[v] = exits(v)
			out[v] = 0
		}
		s.Step()
		s.ForEachFlow(func(v, _ int, agents int64) { out[v] += agents })
		for v := 0; v < 15; v++ {
			if out[v] != exits(v)-exitsBefore[v] {
				t.Fatalf("round %d: outflow of %d = %d, exits delta %d",
					round+1, v, out[v], exits(v)-exitsBefore[v])
			}
		}
	}
}

func TestCoverRoundIsFirstCoverage(t *testing.T) {
	g := graph.Ring(30)
	s := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	cov, err := s.RunUntilCovered(1000)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 29 {
		t.Fatalf("cover time = %d, want 29", cov)
	}
	// Running further must not change CoverRound.
	s.Run(100)
	if s.CoverRound() != 29 {
		t.Fatalf("CoverRound drifted to %d", s.CoverRound())
	}
	// One round earlier a node was still unvisited.
	twin := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	twin.Run(28)
	unvisited := 0
	for v := 0; v < 30; v++ {
		if twin.Visits(v) == 0 {
			unvisited++
		}
	}
	if unvisited != 1 || twin.CoverRound() != -1 {
		t.Fatalf("round 28: %d unvisited nodes, cover round %d; want 1 and -1", unvisited, twin.CoverRound())
	}
}
