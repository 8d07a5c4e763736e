package core

import (
	"errors"
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

func TestSingleAgentRingLimitCycle(t *testing.T) {
	// From all-clockwise pointers the single agent's limit cycle is one
	// clockwise lap followed by one anticlockwise lap: the Eulerian cycle
	// of the symmetric ring, period 2n, entered immediately (μ = 0).
	const n = 16
	g := graph.Ring(n)
	s := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	lc, err := FindLimitCycle(s, 100_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Period != 2*n {
		t.Fatalf("period = %d, want %d", lc.Period, 2*n)
	}
	if lc.StabilizationRound != 0 {
		t.Fatalf("μ = %d, want 0", lc.StabilizationRound)
	}
}

func TestYanovskiLockInBound(t *testing.T) {
	// Yanovski et al. [27]: a single agent stabilizes to an Eulerian
	// circulation within Θ(D·|E|) rounds regardless of initialization;
	// Bampas et al. [6] give the 2D|E| upper bound form. We verify
	// μ <= 4·D·|E| + 2·|E| across topologies and random initializations.
	graphs := []*graph.Graph{
		graph.Ring(12),
		graph.Path(9),
		graph.Grid2D(4, 4),
		graph.Complete(6),
		graph.Star(8),
		graph.Hypercube(3),
		graph.CompleteBinaryTree(3),
		graph.Lollipop(4, 4),
	}
	rng := xrand.New(2024)
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			bound := int64(4*g.Diameter()*g.NumEdges() + 2*g.NumEdges())
			for trial := 0; trial < 3; trial++ {
				s := newTestSystem(t, g,
					WithAgentsAt(rng.Intn(g.NumNodes())),
					WithPointers(PointersRandom(g, rng)))
				lc, err := FindLimitCycle(s, 64*bound+1024, true)
				if err != nil {
					t.Fatal(err)
				}
				if lc.StabilizationRound > bound {
					t.Errorf("trial %d: μ = %d exceeds Θ(D|E|) bound %d",
						trial, lc.StabilizationRound, bound)
				}
			}
		})
	}
}

func TestSingleAgentEulerianCirculation(t *testing.T) {
	// In the limit, a single agent traverses every arc of Ĝ equally often
	// (the Eulerian cycle), so one period of length λ crosses each arc
	// exactly λ/(2|E|) times.
	graphs := []*graph.Graph{
		graph.Ring(10),
		graph.Grid2D(3, 3),
		graph.Complete(5),
		graph.Star(7),
		graph.CompleteBinaryTree(3),
	}
	rng := xrand.New(55)
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			s := newTestSystem(t, g,
				WithAgentsAt(rng.Intn(g.NumNodes())),
				WithPointers(PointersRandom(g, rng)))
			cs, err := MeasureCirculation(s, 10_000_000, false)
			if err != nil {
				t.Fatal(err)
			}
			if !cs.Balanced {
				t.Fatalf("single-agent limit not balanced: min %d, max %d over period %d",
					cs.MinArc, cs.MaxArc, cs.Period)
			}
			if want := cs.Period / int64(g.NumArcs()); cs.MinArc != want {
				t.Fatalf("per-arc traversals = %d, want λ/2|E| = %d", cs.MinArc, want)
			}
		})
	}
}

func TestSingleAgentRingReturnTime(t *testing.T) {
	// Stabilized single agent on C_n: each node is visited twice per
	// period 2n (once per direction); the node adjacent to the turn-around
	// waits 2n-2 rounds between visits.
	const n = 12
	g := graph.Ring(n)
	s := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	rs, err := MeasureReturnTime(s, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Period != 2*n {
		t.Fatalf("period = %d, want %d", rs.Period, 2*n)
	}
	if rs.ReturnTime != 2*n-2 {
		t.Fatalf("return time = %d, want %d", rs.ReturnTime, 2*n-2)
	}
	if rs.MinNodeVisits != 2 || rs.MaxNodeVisits != 2 {
		t.Fatalf("per-period visits [%d,%d], want exactly 2",
			rs.MinNodeVisits, rs.MaxNodeVisits)
	}
}

func TestMultiAgentReturnTimeShrinks(t *testing.T) {
	// Theorem 6: return time is Θ(n/k). With k=4 on n=64 the return time
	// must be well below the single-agent 2n-2 and within a constant of
	// n/k.
	const n = 64
	g := graph.Ring(n)
	single := newTestSystem(t, g,
		WithAgentsAt(0),
		WithPointers(PointersUniform(g, graph.RingCW)))
	rsSingle, err := MeasureReturnTime(single, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	multi := newTestSystem(t, g,
		WithAgentsAt(EquallySpaced(n, 4)...),
		WithPointers(PointersUniform(g, graph.RingCW)))
	rsMulti, err := MeasureReturnTime(multi, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rsMulti.ReturnTime >= rsSingle.ReturnTime {
		t.Fatalf("k=4 return time %d not below k=1 return time %d",
			rsMulti.ReturnTime, rsSingle.ReturnTime)
	}
	// Θ(n/k) with generous constants: n/k = 16.
	if rsMulti.ReturnTime < int64(n)/4/2 || rsMulti.ReturnTime > 8*int64(n)/4 {
		t.Fatalf("k=4 return time %d far from Θ(n/k) = %d", rsMulti.ReturnTime, n/4)
	}
}

func TestFindLimitCycleBudget(t *testing.T) {
	g := graph.Ring(128)
	ptr, err := PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, g, WithAgentsAt(0), WithPointers(ptr))
	if _, err := FindLimitCycle(s, 50, false); !errors.Is(err, ErrNoCycle) {
		t.Fatalf("want ErrNoCycle, got %v", err)
	}
}

func TestLimitCycleIsActuallyPeriodic(t *testing.T) {
	// After FindLimitCycle parks the system in-cycle, advancing by the
	// period must reproduce the configuration exactly — several times over.
	rng := xrand.New(9)
	for trial := 0; trial < 5; trial++ {
		g := graph.Ring(8 + rng.Intn(24))
		k := 1 + rng.Intn(4)
		s := newTestSystem(t, g,
			WithAgentsAt(RandomPositions(g.NumNodes(), k, rng)...),
			WithPointers(PointersRandom(g, rng)))
		lc, err := FindLimitCycle(s, 5_000_000, false)
		if err != nil {
			t.Fatal(err)
		}
		ref := s.Clone()
		for rep := 0; rep < 3; rep++ {
			s.Run(lc.Period)
			if !s.StateEqual(ref) {
				t.Fatalf("trial %d: period %d does not reproduce state at repetition %d",
					trial, lc.Period, rep+1)
			}
		}
	}
}

func TestMuIsMinimal(t *testing.T) {
	// The configuration at round μ recurs (it is in the cycle); the
	// configuration at round μ-1, if μ > 0, must not recur within one
	// period (otherwise μ would not be minimal).
	rng := xrand.New(42)
	for trial := 0; trial < 5; trial++ {
		g := graph.Ring(10 + rng.Intn(20))
		s := newTestSystem(t, g,
			WithAgentsAt(rng.Intn(g.NumNodes())),
			WithPointers(PointersRandom(g, rng)))
		pristine := s.Clone()
		lc, err := FindLimitCycle(s, 5_000_000, true)
		if err != nil {
			t.Fatal(err)
		}
		mu, lambda := lc.StabilizationRound, lc.Period

		atMu := pristine.Clone()
		atMu.Run(mu)
		probe := atMu.Clone()
		probe.Run(lambda)
		if !probe.StateEqual(atMu) {
			t.Fatalf("trial %d: state at μ=%d does not recur after λ=%d", trial, mu, lambda)
		}
		if mu > 0 {
			before := pristine.Clone()
			before.Run(mu - 1)
			probe := before.Clone()
			probe.Run(lambda)
			if probe.StateEqual(before) {
				t.Fatalf("trial %d: μ=%d is not minimal", trial, mu)
			}
		}
	}
}
