package core

import (
	"errors"
	"fmt"
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/kernel"
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
	// exactly λ/(2|E|) times. The arcs crossed are read from each round's
	// flow view over the period after the cycle is found.
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
			lc, err := FindLimitCycle(s, 10_000_000, false)
			if err != nil {
				t.Fatal(err)
			}
			count := make([]int64, g.NumArcs())
			tally := func(v, p int, agents int64) { count[g.ArcID(v, p)] += agents }
			for r := int64(0); r < lc.Period; r++ {
				s.Step()
				s.ForEachFlow(tally)
			}
			want := lc.Period / int64(g.NumArcs())
			for arc, c := range count {
				if c != want {
					t.Fatalf("arc %d crossed %d times over period %d, want λ/2|E| = %d",
						arc, c, lc.Period, want)
				}
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

// TestMuIsMinimal checks the stabilization round μ that FindLimitCycle
// reports over random rings, paths, rings with one edge masked (a restab
// cell's shape after its fault), tori and lollipops with 1 to 2n agents,
// on the generic, auto and fast tiers. Odd trials search after a Run, as
// restab does from its fault round. μ must equal the μ search from a copy
// of the start configuration, the configuration at μ must recur λ rounds
// later, and the one at μ − 1 must not. The sample must hold each branch
// of the μ search enough times: with power = DetectedAt − start − λ + 1,
// the search starts from Brent's last snapshot when λ ≤ power/2 (which
// proves μ > 0), with and without a Run before it; otherwise it starts
// from the start configuration, with μ > 0 or μ = 0.
func TestMuIsMinimal(t *testing.T) {
	rng := xrand.New(42)
	const budget = 1 << 22
	var fromSnapshot, fromSnapshotAfterRun, fromStart, inCycle int
	for trial := 0; trial < 300; trial++ {
		var g *graph.Graph
		switch trial % 5 {
		case 0:
			g = graph.Ring(3 + rng.Intn(38))
		case 1:
			g = graph.Path(2 + rng.Intn(39))
		case 2:
			ring := graph.Ring(4 + rng.Intn(37))
			deleted := make([]bool, ring.NumArcs())
			deleted[rng.Intn(ring.NumArcs())] = true
			var err error
			if g, _, err = graph.MaskEdges(ring, deleted); err != nil {
				t.Fatal(err)
			}
		case 3:
			g = graph.Torus2D(3+rng.Intn(3), 3+rng.Intn(3))
		default:
			g = graph.Lollipop(3+rng.Intn(4), 1+rng.Intn(8))
		}
		n := g.NumNodes()
		k := 1 + rng.Intn(2*n)
		opts := []Option{WithAgentsAt(RandomPositions(n, k, rng)...), WithPointers(PointersRandom(g, rng))}
		var pre int64
		if trial%2 == 1 {
			pre = int64(1 + rng.Intn(4*n))
		}
		var first *LimitCycle
		for _, mode := range []KernelMode{KernelGeneric, KernelAuto, KernelFast} {
			s := newTestSystem(t, g, append(opts, WithKernelMode(mode))...)
			s.Run(pre)
			s.EnableConfigHash()
			start := s.Clone()
			lc, err := FindLimitCycle(s, budget, true)
			if err != nil {
				t.Fatal(err)
			}
			mu, lambda := lc.StabilizationRound, lc.Period
			where := fmt.Sprintf("trial %d: %s k=%d after %d rounds (kernel %s)", trial, g.Name(), k, pre, s.KernelName())
			if want, err := findMu(start.Clone(), lambda, budget, nil); err != nil || mu != want {
				t.Fatalf("%s: μ = %d, the μ search from the start finds %d (%v)", where, mu, want, err)
			}
			atMu := start.Clone()
			atMu.Run(mu)
			probe := atMu.Clone()
			probe.Run(lambda)
			if !probe.StateEqual(atMu) {
				t.Fatalf("%s: state at μ=%d does not recur after λ=%d", where, mu, lambda)
			}
			if mu > 0 {
				before := start.Clone()
				before.Run(mu - 1)
				probe := before.Clone()
				probe.Run(lambda)
				if probe.StateEqual(before) {
					t.Fatalf("%s: μ=%d is not minimal", where, mu)
				}
			}
			if first == nil {
				first = lc
			} else if *lc != *first {
				t.Fatalf("%s: limit cycle %+v, generic tier %+v", where, *lc, *first)
			}
		}
		switch power := first.DetectedAt - pre - first.Period + 1; {
		case 2*first.Period <= power:
			fromSnapshot++
			if pre > 0 {
				fromSnapshotAfterRun++
			}
		case first.StabilizationRound == 0:
			inCycle++
		default:
			fromStart++
		}
	}
	t.Logf("from the snapshot: %d (%d after a Run); from the start: %d; μ = 0: %d",
		fromSnapshot, fromSnapshotAfterRun, fromStart, inCycle)
	const minPerBranch = 20
	if fromSnapshotAfterRun < minPerBranch || fromSnapshot-fromSnapshotAfterRun < minPerBranch ||
		fromStart < minPerBranch || inCycle < minPerBranch {
		t.Fatalf("the sample holds fewer than %d searches on some branch", minPerBranch)
	}
}

// TestReturnTimeAcrossTiers checks MeasureReturnTime, which reads each
// round's visited nodes from the flow view, on every tier. Random rings
// and paths must give identical stats under the generic engine,
// KernelAuto (the sparse round below n/kernel.DenseFraction), the flat
// kernel and the parallel stepper; on the generic engine the stats must
// also equal a brute-force pass over one period built from per-round visit
// deltas. Tori and complete graphs, whose nodes are entered over up to
// four and n−1 arcs, take the generic and brute-force arms.
func TestReturnTimeAcrossTiers(t *testing.T) {
	rng := xrand.New(0x2e7)
	const budget = 1 << 22
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(126)
		var g *graph.Graph
		switch trial % 5 {
		case 0, 1:
			g = graph.Ring(n)
		case 2, 3:
			g = graph.Path(n)
		default:
			if trial%2 == 0 {
				g = graph.Torus2D(3+rng.Intn(4), 3+rng.Intn(4))
			} else {
				g = graph.Complete(3 + rng.Intn(6))
			}
		}
		n = g.NumNodes()
		k := 1 + rng.Intn(2*n)
		if trial%2 == 0 {
			k = 1 + rng.Intn(max(1, n/kernel.DenseFraction-1))
		}
		opts := []Option{WithAgentsAt(RandomPositions(n, k, rng)...), WithPointers(PointersRandom(g, rng))}
		measure := func(extra ...Option) *ReturnStats {
			s := newTestSystem(t, g, append(opts, extra...)...)
			rs, err := MeasureReturnTime(s, budget)
			if err != nil {
				t.Fatalf("%s k=%d (kernel %s): %v", g.Name(), k, s.KernelName(), err)
			}
			return rs
		}

		gen := newTestSystem(t, g, append(opts, WithKernelMode(KernelGeneric))...)
		want, err := MeasureReturnTime(gen, budget)
		if err != nil {
			t.Fatalf("%s k=%d: %v", g.Name(), k, err)
		}
		if got := bruteReturnStats(gen, want.Period); got != *want {
			t.Fatalf("%s k=%d: MeasureReturnTime %+v, brute force %+v", g.Name(), k, *want, got)
		}
		if kernel.DetectShape(g) == kernel.ShapeGeneral {
			continue
		}
		for _, extra := range [][]Option{
			{WithKernelMode(KernelAuto)},
			{WithKernelMode(KernelFast)},
			{WithKernelMode(KernelParallel), WithParallelShards(2 + rng.Intn(2))},
		} {
			if got := measure(extra...); *got != *want {
				t.Fatalf("%s k=%d %v: stats %+v, generic %+v", g.Name(), k, extra, *got, *want)
			}
		}
	}
}

// bruteReturnStats steps s through one period and computes its return
// stats from the visit counters alone: v is visited in round t when
// Visits(v) grows in that round.
func bruteReturnStats(s *System, period int64) ReturnStats {
	rounds := make([][]int64, s.n) // rounds[v]: the rounds that visit v
	prev := make([]int64, s.n)
	for v := range prev {
		prev[v] = s.Visits(v)
	}
	for t := int64(1); t <= period; t++ {
		s.Step()
		for v := range prev {
			if s.Visits(v) > prev[v] {
				rounds[v] = append(rounds[v], t)
			}
			prev[v] = s.Visits(v)
		}
	}
	stats := ReturnStats{Period: period, MinNodeVisits: -1}
	var meanSum float64
	for _, rs := range rounds {
		if len(rs) == 0 {
			return ReturnStats{} // a node left unvisited; MeasureReturnTime errors
		}
		gap := rs[0] + period - rs[len(rs)-1] // across the period boundary
		for i := 1; i < len(rs); i++ {
			gap = max(gap, rs[i]-rs[i-1])
		}
		count := int64(len(rs))
		stats.ReturnTime = max(stats.ReturnTime, gap)
		if stats.MinNodeVisits < 0 || count < stats.MinNodeVisits {
			stats.MinNodeVisits = count
		}
		stats.MaxNodeVisits = max(stats.MaxNodeVisits, count)
		meanSum += float64(period) / float64(count)
	}
	stats.MeanGap = meanSum / float64(s.n)
	return stats
}
