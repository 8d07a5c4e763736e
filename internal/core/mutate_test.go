package core

import (
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// cutRing masks one ring edge {a,b} and returns the new graph plus the
// pointer transplant (next surviving port in cyclic order).
func cutRing(t *testing.T, s *System, g *graph.Graph, a, b int) (*graph.Graph, []int) {
	t.Helper()
	p, ok := g.PortToward(a, b)
	if !ok {
		t.Fatalf("no edge {%d,%d}", a, b)
	}
	deleted := make([]bool, g.NumArcs())
	deleted[g.ArcID(a, p)] = true
	ng, toOld, err := graph.MaskEdges(g, deleted)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	ptrs := make([]int, n)
	for v := 0; v < n; v++ {
		q := s.Pointer(v)
		d0 := g.Degree(v)
		newOf := make([]int, d0)
		for i := range newOf {
			newOf[i] = -1
		}
		for np, op := range toOld[v] {
			newOf[op] = np
		}
		for i := 0; i < d0; i++ {
			if np := newOf[(q+i)%d0]; np >= 0 {
				ptrs[v] = np
				break
			}
		}
	}
	return ng, ptrs
}

// TestRewireKernelAndHash: a rewire away from the ring falls back to the
// generic engine, the repair re-specializes, and the incremental
// configuration hash stays consistent with a full rehash through the whole
// fault epoch.
func TestRewireKernelAndHash(t *testing.T) {
	n := 64
	g := graph.Ring(n)
	rng := xrand.New(3)
	s, err := NewSystem(g,
		WithAgentsAt(RandomPositions(n, n, rng)...), // dense: kernel selected
		WithPointers(PointersRandom(g, rng)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableConfigHash()
	if s.KernelName() != "ring" {
		t.Fatalf("dense ring system runs on %q, want the ring kernel", s.KernelName())
	}
	s.Run(10)

	ng, ptrs := cutRing(t, s, g, 10, 11)
	if err := s.Rewire(ng, ptrs); err != nil {
		t.Fatal(err)
	}
	if s.KernelName() != "generic" {
		t.Fatalf("cut ring still reports kernel %q, want generic fallback", s.KernelName())
	}
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("incremental hash out of sync after Rewire")
	}
	s.Run(25)
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("incremental hash out of sync stepping the rewired graph")
	}

	// Repair: back to the pristine ring, re-specialized.
	if err := s.Rewire(g, s.Pointers()); err != nil {
		t.Fatal(err)
	}
	if s.KernelName() != "ring" {
		t.Fatalf("repaired ring reports kernel %q, want re-specialized ring", s.KernelName())
	}
	s.Run(25)
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("incremental hash out of sync after repair")
	}
}

// TestChurnAndPointerMutations: joins count as visits, leaves preserve the
// floor of one agent, pointer overwrites keep the hash consistent, and
// Reset restores the construction-time population, pointers and graph.
func TestChurnAndPointerMutations(t *testing.T) {
	n := 32
	g := graph.Ring(n)
	s, err := NewSystem(g, WithAgentsAt(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableConfigHash()
	s.Run(4)

	visits7, visits20, covered := s.Visits(7), s.Visits(20), s.Covered()
	if err := s.AddAgents(7, 7, 20); err != nil {
		t.Fatal(err)
	}
	if s.NumAgents() != 5 {
		t.Fatalf("k = %d after join, want 5", s.NumAgents())
	}
	if s.Visits(7) != visits7+2 || visits20 != 0 || s.Visits(20) != 1 {
		t.Fatal("joined agents did not count as visits")
	}
	want := covered + 1 // node 20
	if visits7 == 0 {
		want++
	}
	if s.Covered() != want {
		t.Fatalf("covered %d after join, want %d", s.Covered(), want)
	}
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("hash out of sync after AddAgents")
	}

	if err := s.RemoveAgents(7, 7); err != nil {
		t.Fatal(err)
	}
	if s.NumAgents() != 3 {
		t.Fatalf("k = %d after leave, want 3", s.NumAgents())
	}
	if err := s.RemoveAgents(20, 20); err == nil {
		t.Fatal("removing a missing agent succeeded")
	}
	if s.NumAgents() != 3 {
		t.Fatal("failed removal mutated the population")
	}
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("hash out of sync after RemoveAgents (including rollback)")
	}

	zeros := make([]int, n)
	if err := s.SetPointers(zeros); err != nil {
		t.Fatal(err)
	}
	if s.Pointer(13) != 0 {
		t.Fatal("SetPointers did not apply")
	}
	if s.ConfigHash() != s.fullHash() {
		t.Fatal("hash out of sync after SetPointers")
	}
	s.Run(8)

	s.Reset()
	if s.NumAgents() != 2 || s.AgentsAt(0) != 1 || s.AgentsAt(5) != 1 {
		t.Fatal("Reset did not restore the initial population")
	}
	if s.Round() != 0 || s.Covered() != 2 {
		t.Fatal("Reset did not restore the initial counters")
	}
}

// TestResetCoverageEpoch: ResetCoverage restarts visit bookkeeping from
// the current positions without touching positions, pointers or the clock.
func TestResetCoverageEpoch(t *testing.T) {
	n := 24
	g := graph.Ring(n)
	s, err := NewSystem(g, WithAgentsAt(EquallySpaced(n, 4)...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilCovered(1 << 20); err != nil {
		t.Fatal(err)
	}
	round := s.Round()
	positions := s.Positions()

	s.ResetCoverage()
	if s.Round() != round {
		t.Fatal("ResetCoverage touched the round clock")
	}
	if got := s.Positions(); len(got) != len(positions) {
		t.Fatal("ResetCoverage touched the agents")
	}
	if s.Covered() >= n {
		t.Fatalf("coverage epoch not restarted (covered %d)", s.Covered())
	}
	occ := 0
	for v := 0; v < n; v++ {
		if s.AgentsAt(v) > 0 {
			occ++
			if s.Visits(v) != s.AgentsAt(v) {
				t.Fatalf("occupied node %d not re-seeded as visited", v)
			}
		} else if s.Visits(v) != 0 {
			t.Fatalf("empty node %d still marked visited", v)
		}
	}
	if s.Covered() != occ {
		t.Fatalf("Covered() = %d, want %d occupied nodes", s.Covered(), occ)
	}

	cover, err := s.RunUntilCovered(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if cover <= round {
		t.Fatalf("re-cover round %d not after the epoch start %d", cover, round)
	}
}
