package core

import (
	"testing"
	"testing/quick"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// TestZigzagExactFirstVisitLaw pins the exact dynamics of the Theorem 1
// worst case in its path form: a single agent starting at the end of a path
// whose pointers all reflect toward the origin first reaches node d at
// round d², exactly. (Each excursion extends the explored prefix by one
// node and is one round-trip longer than the previous: Σ odd numbers.) The
// rounds between first visits run through Run, so on the sparse path they
// take interaction-free windows.
func TestZigzagExactFirstVisitLaw(t *testing.T) {
	const n = 24
	g := graph.Path(n)
	ptr, err := PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(0), WithPointers(ptr))
	for d := 1; d < n; d++ {
		s.Run(int64(d*d-1) - s.Round())
		if s.Visits(d) != 0 {
			t.Fatalf("node %d visited by round %d, want first at %d", d, s.Round(), d*d)
		}
		s.Run(1)
		if s.Visits(d) == 0 {
			t.Fatalf("node %d unvisited at round %d, want first visit then", d, d*d)
		}
	}
	if cover := s.CoverRound(); cover != int64((n-1)*(n-1)) {
		t.Fatalf("cover time %d, want (n-1)² = %d", cover, (n-1)*(n-1))
	}
	if s.windowRounds == 0 {
		t.Fatal("no interaction-free window ran")
	}
}

// TestVisitMassBalance: every agent arrives somewhere each round, so the
// total visit mass obeys Σ_v n_v(t) = k·(t+1) for undelayed deployments.
func TestVisitMassBalance(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := graph.Ring(6 + rng.Intn(30))
		k := 1 + rng.Intn(6)
		s, err := NewSystem(g,
			WithAgentsAt(RandomPositions(g.NumNodes(), k, rng)...),
			WithPointers(PointersRandom(g, rng)))
		if err != nil {
			return false
		}
		for round := int64(0); round <= 100; round++ {
			var total int64
			for v := 0; v < g.NumNodes(); v++ {
				total += s.Visits(v)
			}
			if total != int64(k)*(round+1) {
				return false
			}
			s.Step()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExitMassBalance: Σ_v e_v(t) = k·t for undelayed deployments, with
// e_v(t) = n_v(t) − (agents at v) derived by conservation.
func TestExitMassBalance(t *testing.T) {
	g := graph.Grid2D(4, 5)
	rng := xrand.New(8)
	k := 6
	s := newTestSystem(t, g,
		WithAgentsAt(RandomPositions(20, k, rng)...),
		WithPointers(PointersRandom(g, rng)))
	for round := int64(0); round <= 200; round++ {
		var total int64
		for v := 0; v < 20; v++ {
			total += s.Visits(v) - s.AgentsAt(v)
		}
		if total != int64(k)*round {
			t.Fatalf("round %d: exit mass %d, want %d", round, total, int64(k)*round)
		}
		s.Step()
	}
}

// TestOccupiedListConsistency: the occupied list exactly matches the
// positive entries of the agent-count vector at all times, including under
// holds.
func TestOccupiedListConsistency(t *testing.T) {
	rng := xrand.New(44)
	g := graph.Star(12)
	s := newTestSystem(t, g,
		WithAgentsAt(RandomPositions(12, 7, rng)...),
		WithPointers(PointersRandom(g, rng)))
	held := make([]int64, 12)
	for round := 0; round < 300; round++ {
		if rng.Bool() {
			for v := range held {
				held[v] = int64(rng.Intn(3))
			}
			s.StepHeld(held)
		} else {
			s.Step()
		}
		inList := make(map[int]bool)
		for _, v := range s.Occupied() {
			if inList[v] {
				t.Fatalf("round %d: node %d twice in occupied list", round, v)
			}
			inList[v] = true
			if s.AgentsAt(v) <= 0 {
				t.Fatalf("round %d: occupied list contains empty node %d", round, v)
			}
		}
		for v := 0; v < 12; v++ {
			if s.AgentsAt(v) > 0 && !inList[v] {
				t.Fatalf("round %d: node %d with %d agents missing from occupied list",
					round, v, s.AgentsAt(v))
			}
		}
	}
}

// TestDeterminismAcrossEquivalentConstructions: WithAgentsAt and
// WithAgentCounts describing the same multiset produce identical systems.
func TestDeterminismAcrossEquivalentConstructions(t *testing.T) {
	g := graph.Ring(20)
	a := newTestSystem(t, g, WithAgentsAt(3, 3, 7, 15))
	counts := make([]int64, 20)
	counts[3], counts[7], counts[15] = 2, 1, 1
	b := newTestSystem(t, g, WithAgentCounts(counts))
	if !a.StateEqual(b) || a.ConfigHash() != b.ConfigHash() {
		t.Fatal("equivalent constructions differ")
	}
	a.Run(500)
	b.Run(500)
	if !a.StateEqual(b) {
		t.Fatal("equivalent constructions diverged")
	}
}

// TestSymmetryOfSymmetricInitialization: a mirror-symmetric initialization
// on the ring stays mirror-symmetric forever (the symmetry argument in the
// proof of Theorem 1).
func TestSymmetryOfSymmetricInitialization(t *testing.T) {
	// n odd; k even agents all at node 0; pointers toward node 0 are
	// mirror symmetric under v -> n-v.
	const n, k = 25, 4
	g := graph.Ring(n)
	ptr, err := PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(AllOnNode(0, k)...), WithPointers(ptr))
	mirror := func(v int) int { return (n - v) % n }
	for round := 0; round < 400; round++ {
		s.Step()
		for v := 1; v < n; v++ {
			if s.AgentsAt(v) != s.AgentsAt(mirror(v)) {
				t.Fatalf("round %d: agent symmetry broken at %d", round+1, v)
			}
			// Pointers mirror with direction flipped.
			if v != mirror(v) {
				want := 1 - s.Pointer(mirror(v))
				if s.Pointer(v) != want {
					t.Fatalf("round %d: pointer symmetry broken at %d", round+1, v)
				}
			}
		}
		// The agent count at the axis node 0 stays even.
		if s.AgentsAt(0)%2 != 0 {
			t.Fatalf("round %d: odd agent count at axis", round+1)
		}
	}
}
