package ringdom

import (
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

func trackedSystem(t *testing.T, n int, opts ...core.Option) *Tracker {
	t.Helper()
	s, err := core.NewSystem(graph.Ring(n), opts...)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	tr, err := NewTracker(s)
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	return tr
}

func TestTrackerRequiresRing(t *testing.T) {
	s, err := core.NewSystem(graph.Grid2D(3, 3), core.WithAgentsAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTracker(s); err == nil {
		t.Fatal("tracker accepted non-ring")
	}
}

func TestVisitClassificationSingleAgentSweep(t *testing.T) {
	// All pointers clockwise, one agent at 0: the agent cruises clockwise
	// (every visit a propagation) until it returns to node 0, whose
	// pointer has flipped — that visit is a reflection.
	const n = 10
	tr := trackedSystem(t, n,
		core.WithAgentsAt(0),
		core.WithPointers(core.PointersUniform(graph.Ring(n), graph.RingCW)))
	// Rounds 1..n: agent visits 1, 2, ..., n-1, 0. Classification of the
	// visit at round r lands after round r+1.
	tr.Run(n + 2)
	for v := 1; v < n; v++ {
		if kind := tr.LastVisitKind(v); kind != VisitPropagation {
			t.Errorf("node %d: kind = %v, want propagation", v, kind)
		}
	}
	// Node 0 was revisited at round n and bounced back (pointer flipped by
	// the initial departure).
	if kind := tr.LastVisitKind(0); kind != VisitReflection {
		t.Errorf("node 0: kind = %v, want reflection", kind)
	}
}

func TestVisitKindStrings(t *testing.T) {
	cases := map[VisitKind]string{
		VisitUnknown:     "unknown",
		VisitPropagation: "propagation",
		VisitReflection:  "reflection",
		VisitMulti:       "multi",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	borders := map[BorderKind]string{
		BorderVertex:  "vertex-type",
		BorderEdge:    "edge-type",
		BorderWide:    "wide",
		BorderKind(0): "unknown",
	}
	for b, want := range borders {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
}

func TestTwoAgentHeadOnVisitIsMulti(t *testing.T) {
	// Two agents approach the middle node from both sides simultaneously:
	// its visit must be classified as multi.
	const n = 8
	ptr := make([]int, n)
	// Agent at 2 moves clockwise (port 0); agent at 6 moves anticlockwise.
	ptr[2] = graph.RingCW
	ptr[6] = graph.RingCCW
	// Give both "runway" pointers so they keep heading toward node 4.
	ptr[3] = graph.RingCW
	ptr[5] = graph.RingCCW
	tr := trackedSystem(t, n, core.WithAgentsAt(2, 6), core.WithPointers(ptr))
	tr.Run(3) // both arrive at node 4 at round 2; classified after round 3
	if kind := tr.LastVisitKind(4); kind != VisitMulti {
		t.Fatalf("node 4 kind = %v, want multi", kind)
	}
}

func TestLazyDomainsApproximateFullDomains(t *testing.T) {
	// Lemma 6: each lazy domain is the full domain minus at most its
	// endpoints. The tracker classifies with one round of lag, so we allow
	// one extra node of slack.
	const (
		n = 120
		k = 3
	)
	g := graph.Ring(n)
	positions := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, positions)
	if err != nil {
		t.Fatal(err)
	}
	tr := trackedSystem(t, n, core.WithAgentsAt(positions...), core.WithPointers(ptr))
	tr.Run(int64(6 * n)) // cover and settle

	for sample := 0; sample < 50; sample++ {
		tr.Run(7)
		lp, err := tr.LazyDomains()
		if err != nil {
			t.Fatalf("sample %d: %v", sample, err)
		}
		if len(lp.Domains) != k {
			t.Fatalf("sample %d: %d lazy domains", sample, len(lp.Domains))
		}
		for _, d := range lp.Domains {
			if d.Size < d.DomainSize-3 {
				t.Errorf("sample %d: lazy size %d much smaller than domain %d",
					sample, d.Size, d.DomainSize)
			}
			if d.Size > d.DomainSize {
				t.Errorf("sample %d: lazy size %d exceeds domain %d", sample, d.Size, d.DomainSize)
			}
		}
	}
}

func TestLemma12AdjacentLazyDomainsEqualize(t *testing.T) {
	// Lemma 12: once every lazy domain is large enough, adjacent lazy
	// domains eventually differ by at most 10. Start from the worst-case
	// all-on-one-node initialization and let the system stabilize.
	const (
		n = 256
		k = 4
	)
	g := graph.Ring(n)
	ptr, err := core.PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trackedSystem(t, n, core.WithAgentsAt(core.AllOnNode(0, k)...), core.WithPointers(ptr))
	// Stabilization is O(n²) from adversarial starts; run generously.
	tr.Run(int64(n) * int64(n))

	maxDiff := 0
	for sample := 0; sample < 40; sample++ {
		tr.Run(int64(n / 2))
		lp, err := tr.LazyDomains()
		if err != nil {
			t.Fatalf("sample %d: %v", sample, err)
		}
		if d := lp.MaxAdjacentDiff(); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 10 {
		t.Errorf("max adjacent lazy-domain difference %d exceeds Lemma 12's bound 10", maxDiff)
	}
}

func TestBordersAreVertexOrEdgeAfterStabilization(t *testing.T) {
	// Fig. 1 / §2.2: once neighboring domains are settled, every border is
	// either vertex-type or edge-type.
	const (
		n = 180
		k = 3
	)
	g := graph.Ring(n)
	positions := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, positions)
	if err != nil {
		t.Fatal(err)
	}
	tr := trackedSystem(t, n, core.WithAgentsAt(positions...), core.WithPointers(ptr))
	tr.Run(int64(10 * n))

	seen := map[BorderKind]int{}
	for sample := 0; sample < 60; sample++ {
		tr.Run(11)
		borders, err := tr.Borders()
		if err != nil {
			t.Fatalf("sample %d: %v", sample, err)
		}
		for _, b := range borders {
			seen[b.Kind]++
			if b.Gap > 3 {
				t.Errorf("sample %d: border gap %d too wide after stabilization", sample, b.Gap)
			}
		}
	}
	if seen[BorderVertex]+seen[BorderEdge] == 0 {
		t.Error("no vertex- or edge-type borders observed")
	}
}

func TestTrackerStepMatchesSystemRound(t *testing.T) {
	tr := trackedSystem(t, 16, core.WithAgentsAt(0, 8))
	tr.Run(37)
	if tr.System().Round() != 37 {
		t.Fatalf("system round = %d", tr.System().Round())
	}
}

func TestLazyPartitionHelpers(t *testing.T) {
	lp := &LazyPartition{
		N: 30,
		Domains: []LazyDomain{
			{Size: 8}, {Size: 12}, {Size: 5},
		},
	}
	if lp.MinSize() != 5 {
		t.Fatalf("MinSize = %d", lp.MinSize())
	}
	// |8-12|=4, |12-5|=7, |5-8|=3
	if lp.MaxAdjacentDiff() != 7 {
		t.Fatalf("MaxAdjacentDiff = %d", lp.MaxAdjacentDiff())
	}
	sizes := lp.Sizes()
	if len(sizes) != 3 || sizes[1] != 12 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestRandomConfigurationsDomainStructure(t *testing.T) {
	// Structural sweep: domains must stay contiguous (no assembly errors)
	// through long runs from random initializations.
	rng := xrand.New(21)
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(80)
		g := graph.Ring(n)
		k := 2 + rng.Intn(4)
		positions := core.RandomPositions(n, k, rng)
		tr := trackedSystem(t, n,
			core.WithAgentsAt(positions...),
			core.WithPointers(core.PointersRandom(g, rng)))
		for chunk := 0; chunk < 30; chunk++ {
			tr.Run(int64(n / 2))
			if _, err := Domains(tr.System()); err != nil {
				t.Fatalf("trial %d chunk %d: %v", trial, chunk, err)
			}
		}
	}
}
