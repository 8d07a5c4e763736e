package core

import (
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

func TestPointersTowardNodeOnRing(t *testing.T) {
	g := graph.Ring(10)
	ptr, err := PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1..5 are closer going anticlockwise; 6..9 clockwise. Node 5 is
	// the antipode (both directions tie; either is a valid shortest path).
	for v := 1; v <= 4; v++ {
		if ptr[v] != graph.RingCCW {
			t.Errorf("ptr[%d] = %d, want anticlockwise", v, ptr[v])
		}
	}
	for v := 6; v <= 9; v++ {
		if ptr[v] != graph.RingCW {
			t.Errorf("ptr[%d] = %d, want clockwise", v, ptr[v])
		}
	}
	if d := g.BFSDist(0)[g.Neighbor(5, ptr[5])]; d != 4 {
		t.Errorf("antipode pointer does not reduce distance (neighbor dist %d)", d)
	}
}

func TestPointersTowardNodeReducesDistanceEverywhere(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid2D(5, 4), graph.Hypercube(4), graph.CompleteBinaryTree(4)} {
		target := g.NumNodes() / 2
		ptr, err := PointersTowardNode(g, target)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		dist := g.BFSDist(target)
		for v := 0; v < g.NumNodes(); v++ {
			if v == target {
				continue
			}
			if dist[g.Neighbor(v, ptr[v])] != dist[v]-1 {
				t.Errorf("%s: pointer at %d not on shortest path", g.Name(), v)
			}
		}
	}
}

func TestPointersTowardNodeRejectsBadTarget(t *testing.T) {
	g := graph.Ring(5)
	if _, err := PointersTowardNode(g, 5); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := PointersTowardNode(g, -1); err == nil {
		t.Error("negative target accepted")
	}
}

func TestPointersNegativeReflectsFirstVisitor(t *testing.T) {
	// An agent walking into never-visited territory must be bounced back
	// on its first visit to each new node.
	g := graph.Ring(12)
	ptr, err := PointersNegative(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(0), WithPointers(ptr))
	// Pointer at node 0 is arbitrary (port 0 = CW). Round 1: agent moves
	// to node 1. Node 1's pointer points back toward 0, so round 2 returns
	// it to 0, whose pointer (already advanced) sends it to node 11 next.
	s.Step()
	if s.AgentsAt(1) != 1 {
		t.Fatalf("round 1: positions %v", s.Positions())
	}
	s.Step()
	if s.AgentsAt(0) != 1 {
		t.Fatalf("round 2: agent was not reflected, positions %v", s.Positions())
	}
	s.Step()
	if s.AgentsAt(11) != 1 {
		t.Fatalf("round 3: positions %v", s.Positions())
	}
}

func TestPointersNegativePointsTowardNearestAgent(t *testing.T) {
	g := graph.Ring(20)
	starts := []int{0, 10}
	ptr, err := PointersNegative(g, starts)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int, 20)
	for v := range dist {
		d0 := minInt(v, 20-v)
		d10 := minInt(abs(v-10), 20-abs(v-10))
		dist[v] = minInt(d0, d10)
	}
	for v := 0; v < 20; v++ {
		if dist[v] == 0 {
			continue
		}
		nb := g.Neighbor(v, ptr[v])
		if dist[nb] != dist[v]-1 {
			t.Errorf("node %d: pointer heads to %d (dist %d), want closer to an agent (dist %d)",
				v, nb, dist[nb], dist[v]-1)
		}
	}
}

func TestPointersNegativeErrors(t *testing.T) {
	g := graph.Ring(5)
	if _, err := PointersNegative(g, nil); err == nil {
		t.Error("empty agent list accepted")
	}
	if _, err := PointersNegative(g, []int{9}); err == nil {
		t.Error("out-of-range agent accepted")
	}
}

func TestPointersUniformClamps(t *testing.T) {
	g := graph.Path(5) // endpoints have degree 1
	ptr := PointersUniform(g, 1)
	if ptr[0] != 0 || ptr[4] != 0 {
		t.Error("degree-1 endpoints not clamped to port 0")
	}
	for v := 1; v < 4; v++ {
		if ptr[v] != 1 {
			t.Errorf("interior pointer at %d = %d", v, ptr[v])
		}
	}
}

func TestPointersRandomValid(t *testing.T) {
	g := graph.Star(9)
	ptr := PointersRandom(g, xrand.New(2))
	for v := 0; v < 9; v++ {
		if ptr[v] < 0 || ptr[v] >= g.Degree(v) {
			t.Fatalf("pointer %d invalid at node %d", ptr[v], v)
		}
	}
}

func TestEquallySpaced(t *testing.T) {
	pos := EquallySpaced(100, 4)
	want := []int{0, 25, 50, 75}
	for i, w := range want {
		if pos[i] != w {
			t.Fatalf("EquallySpaced(100,4) = %v", pos)
		}
	}
	// Non-divisible case still spreads within bounds and is sorted.
	pos = EquallySpaced(10, 3)
	prev := -1
	for _, p := range pos {
		if p < 0 || p >= 10 || p <= prev {
			t.Fatalf("EquallySpaced(10,3) = %v", pos)
		}
		prev = p
	}
}

func TestAllOnNode(t *testing.T) {
	pos := AllOnNode(7, 5)
	if len(pos) != 5 {
		t.Fatalf("len = %d", len(pos))
	}
	for _, p := range pos {
		if p != 7 {
			t.Fatalf("AllOnNode = %v", pos)
		}
	}
}

func TestRandomPositionsInRange(t *testing.T) {
	pos := RandomPositions(13, 50, xrand.New(8))
	for _, p := range pos {
		if p < 0 || p >= 13 {
			t.Fatalf("position %d out of range", p)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
