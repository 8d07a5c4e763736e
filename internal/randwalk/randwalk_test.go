package randwalk

import (
	"errors"
	"math"
	"slices"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/stats"
	"rotorring/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	g := graph.Ring(8)
	if _, err := New(g, nil, xrand.New(1)); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := New(g, []int{9}, xrand.New(1)); err == nil {
		t.Error("out-of-range placement accepted")
	}
}

func TestWalkerConservationAndAdjacency(t *testing.T) {
	g := graph.Grid2D(5, 5)
	w, err := New(g, []int{0, 12, 24}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Positions()
	for round := 0; round < 500; round++ {
		w.Step()
		cur := w.Positions()
		if len(cur) != 3 {
			t.Fatalf("walker count changed: %v", cur)
		}
		for i := range cur {
			// Every move must follow an edge.
			if _, ok := g.PortToward(prev[i], cur[i]); !ok {
				t.Fatalf("round %d: walker %d jumped %d -> %d", round+1, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	g := graph.Ring(32)
	a, _ := New(g, []int{0, 16}, xrand.New(42))
	b, _ := New(g, []int{0, 16}, xrand.New(42))
	for i := 0; i < 1000; i++ {
		a.Step()
		b.Step()
	}
	pa, pb := a.Positions(), b.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same-seed walks diverged: %v vs %v", pa, pb)
		}
	}
}

func TestRunUntilCoveredBudget(t *testing.T) {
	g := graph.Ring(1000)
	w, _ := New(g, []int{0}, xrand.New(1))
	if _, err := w.RunUntilCovered(10); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("want ErrNotCovered, got %v", err)
	}
}

func TestSingleWalkCoverTimeOnRing(t *testing.T) {
	// The expected cover time of a single random walk on C_n is exactly
	// n(n-1)/2. With n=64 and 200 trials the sample mean should land
	// within ~10% of 2016.
	const n = 64
	g := graph.Ring(n)
	times, err := CoverTimes(g, []int{0}, 200, 12345, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.MeanInt64(times)
	want := float64(n*(n-1)) / 2
	if math.Abs(mean-want)/want > 0.12 {
		t.Fatalf("mean cover time %.0f, theory %.0f", mean, want)
	}
}

func TestCompleteGraphCoverIsCouponCollector(t *testing.T) {
	// On K_n a single walk covers in about (n-1)·H_{n-1} rounds (coupon
	// collector over the other n-1 nodes).
	const n = 32
	g := graph.Complete(n)
	times, err := CoverTimes(g, []int{0}, 300, 99, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.MeanInt64(times)
	want := float64(n-1) * stats.Harmonic(n-1)
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("mean cover time %.1f, coupon collector %.1f", mean, want)
	}
}

func TestMoreWalkersCoverFaster(t *testing.T) {
	const n = 256
	g := graph.Ring(n)
	mean := func(k int) float64 {
		times, err := CoverTimes(g, core.EquallySpaced(n, k), 24, 7, 1<<26)
		if err != nil {
			t.Fatal(err)
		}
		return stats.MeanInt64(times)
	}
	m1, m4, m16 := mean(1), mean(4), mean(16)
	if !(m1 > m4 && m4 > m16) {
		t.Fatalf("cover times not decreasing in k: %v, %v, %v", m1, m4, m16)
	}
	// Theorem 5: best-case speedup is Θ(k²/log²k); even a crude check
	// should see far better than 2x from k=1 to k=4.
	if m1/m4 < 3 {
		t.Errorf("k=4 speedup only %.2f", m1/m4)
	}
}

func TestCoverTimesRejectsBadTrials(t *testing.T) {
	g := graph.Ring(8)
	if _, err := CoverTimes(g, []int{0}, 0, 1, 100); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestCoverTimesDeterministicAcrossRuns(t *testing.T) {
	g := graph.Ring(64)
	a, err := CoverTimes(g, []int{0, 32}, 16, 5, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoverTimes(g, []int{0, 32}, 16, 5, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMeasureGapsMeanIsNOverK(t *testing.T) {
	// Each of the k walks has uniform stationary distribution on the ring,
	// so the expected time between successive visits to a node is n/k
	// (§4, final remarks).
	const (
		n = 64
		k = 4
	)
	g := graph.Ring(n)
	w, _ := New(g, core.EquallySpaced(n, k), xrand.New(11))
	gs := w.MeasureGaps(10*n, 200_000)
	want := float64(n) / float64(k)
	if math.Abs(gs.MeanGap-want)/want > 0.10 {
		t.Fatalf("mean gap %.2f, want about %.2f", gs.MeanGap, want)
	}
	// The max gap has high variance but must exceed the mean.
	if gs.MaxGap < int64(gs.MeanGap) {
		t.Fatalf("max gap %d below mean gap %.2f", gs.MaxGap, gs.MeanGap)
	}
}

func TestVisitsCountArrivals(t *testing.T) {
	g := graph.Ring(16)
	w, _ := New(g, []int{3, 3}, xrand.New(2))
	if w.Visits(3) != 2 {
		t.Fatalf("initial visits = %d", w.Visits(3))
	}
	w.Run(100)
	var total int64
	for v := 0; v < 16; v++ {
		total += w.Visits(v)
	}
	// 2 initial placements + 2 walkers × 100 rounds.
	if total != 2+200 {
		t.Fatalf("total visits = %d", total)
	}
}

func TestDegreeOneNodesFollowOnlyEdge(t *testing.T) {
	g := graph.Star(6)
	w, _ := New(g, []int{1}, xrand.New(4))
	w.Step()
	if w.Positions()[0] != 0 {
		t.Fatal("leaf walker did not move to hub")
	}
}

// --- Tier-3 counts-based engine tests ---

func TestModeAutoSelection(t *testing.T) {
	g := graph.Ring(32)
	cases := []struct {
		k    int
		opts []Option
		want string
	}{
		{2, nil, "agents"},
		{32 * CountsFactor, nil, "counts"},
		{2, []Option{WithMode(ModeCounts)}, "counts"},
		{32 * CountsFactor, []Option{WithMode(ModeAgents)}, "agents"},
	}
	for _, tc := range cases {
		w, err := New(g, core.EquallySpaced(32, tc.k), xrand.New(1), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Mode(); got != tc.want {
			t.Errorf("k=%d opts=%d: mode %q, want %q", tc.k, len(tc.opts), got, tc.want)
		}
	}
}

// TestCountsConservation checks that counts-based stepping conserves
// walkers, keeps visit counters consistent, and only moves along edges, on
// both the ring fast path and the general multinomial path.
func TestCountsConservation(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(24), graph.Torus2D(5, 5), graph.Star(9)} {
		const k = 120
		w, err := New(g, core.EquallySpaced(g.NumNodes(), k), xrand.New(3), WithMode(ModeCounts))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 200; round++ {
			before := append([]int64(nil), w.cnt...)
			w.Step()
			var total int64
			for v, c := range w.cnt {
				if c < 0 {
					t.Fatalf("%s: negative count at %d", g.Name(), v)
				}
				total += c
				// Arrivals at v must be explainable by neighbor occupancy.
				if c > 0 {
					var avail int64
					for p := 0; p < g.Degree(v); p++ {
						avail += before[g.Neighbor(v, p)]
					}
					if c > avail {
						t.Fatalf("%s: %d arrivals at %d but only %d walkers adjacent", g.Name(), c, v, avail)
					}
				}
			}
			if total != k {
				t.Fatalf("%s: walker total %d after round %d", g.Name(), total, round+1)
			}
		}
		var visitTotal int64
		for v := 0; v < g.NumNodes(); v++ {
			visitTotal += w.Visits(v)
		}
		if visitTotal != k+k*200 {
			t.Fatalf("%s: visit total %d, want %d", g.Name(), visitTotal, k+k*200)
		}
	}
}

// TestCountsVsAgentsCoverDistribution is the tier-3 statistical validation:
// the two engines simulate the same process, so their cover-time
// distributions on a small ring must agree. RNG consumption necessarily
// differs, so the comparison is distributional: a two-sample z-test on the
// mean over many trials, plus a quantile sanity check.
func TestCountsVsAgentsCoverDistribution(t *testing.T) {
	const (
		n      = 24
		k      = 96 // k = 4n: auto would pick counts; force both engines
		trials = 400
	)
	g := graph.Ring(n)
	positions := core.AllOnNode(0, k)

	sample := func(mode Mode, seed uint64) []int64 {
		times, err := CoverTimes(g, positions, trials, seed, 1<<24, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		return times
	}
	agents := sample(ModeAgents, 1001)
	counts := sample(ModeCounts, 2002)

	meanVar := func(xs []int64) (float64, float64) {
		var sum, sumsq float64
		for _, x := range xs {
			sum += float64(x)
			sumsq += float64(x) * float64(x)
		}
		m := sum / float64(len(xs))
		return m, sumsq/float64(len(xs)) - m*m
	}
	ma, va := meanVar(agents)
	mc, vc := meanVar(counts)

	// Two-sample z-test on the means at ~4σ.
	se := math.Sqrt(va/trials + vc/trials)
	if z := math.Abs(ma-mc) / se; z > 4 {
		t.Errorf("cover-time means diverge: agents %.1f vs counts %.1f (z=%.1f)", ma, mc, z)
	}
	// The spreads should be comparable too (variance ratio within 2x).
	if r := va / vc; r < 0.5 || r > 2 {
		t.Errorf("cover-time variances diverge: agents %.1f vs counts %.1f", va, vc)
	}
}

// TestCountsVsAgentsGapStats cross-validates the recurrence measurements:
// the mean inter-visit gap must be ~n/k under both engines.
func TestCountsVsAgentsGapStats(t *testing.T) {
	const n, k = 32, 128
	g := graph.Ring(n)
	want := float64(n) / float64(k)
	for _, mode := range []Mode{ModeAgents, ModeCounts} {
		w, err := New(g, core.EquallySpaced(n, k), xrand.New(17), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		gs := w.MeasureGaps(10*n, 100_000)
		if math.Abs(gs.MeanGap-want)/want > 0.10 {
			t.Errorf("%v: mean gap %.3f, want about %.3f", mode, gs.MeanGap, want)
		}
	}
}

// TestWalkResetClone pins the Reset/Clone contracts on both engines.
func TestWalkResetClone(t *testing.T) {
	g := graph.Ring(20)
	for _, mode := range []Mode{ModeAgents, ModeCounts} {
		rng := xrand.New(77)
		w, err := New(g, []int{0, 0, 5, 13}, rng, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		first, err := w.RunUntilCovered(1 << 20)
		if err != nil {
			t.Fatal(err)
		}

		// Reset leaves the generator alone, so rewinding the caller's
		// generator and resetting must reproduce the identical trajectory.
		rng.Reseed(77)
		w.Reset()
		if w.Round() != 0 || w.Covered() != 3 || w.Visits(0) != 2 {
			t.Fatalf("%v: Reset state round=%d covered=%d visits0=%d", mode, w.Round(), w.Covered(), w.Visits(0))
		}
		again, err := w.RunUntilCovered(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("%v: cover %d then %d after Reset", mode, first, again)
		}

		// Clone must evolve identically to the original.
		c := w.Clone()
		for i := 0; i < 50; i++ {
			w.Step()
			c.Step()
		}
		pw, pc := w.Positions(), c.Positions()
		for i := range pw {
			if pw[i] != pc[i] {
				t.Fatalf("%v: clone diverged: %v vs %v", mode, pw, pc)
			}
		}
		if w.Round() != c.Round() || w.Covered() != c.Covered() {
			t.Fatalf("%v: clone counters diverged", mode)
		}
	}
}

// TestCountsHittingAndAt covers the At accessor under counts-based
// stepping.
func TestCountsHittingAndAt(t *testing.T) {
	g := graph.Ring(16)
	w, err := New(g, []int{3, 3, 8}, xrand.New(5), WithMode(ModeCounts))
	if err != nil {
		t.Fatal(err)
	}
	if w.At(3) != 2 || w.At(8) != 1 || w.At(0) != 0 {
		t.Fatalf("At counts wrong: %d %d %d", w.At(3), w.At(8), w.At(0))
	}
}

// TestWalkFlowView: the first ForEachFlow call reports nothing and switches
// recording on; from then on each round's flows leave every node with all
// its walkers and land on every node as its arrivals, in both engines, on
// ring and general shapes. Reset empties the view, Clone copies it, and
// recording never changes the trajectory.
func TestWalkFlowView(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(17), graph.Torus2D(4, 5), graph.Path(9)} {
		for _, mode := range []Mode{ModeAgents, ModeCounts} {
			n := g.NumNodes()
			positions := core.RandomPositions(n, 3*n, xrand.New(5))
			w, err := New(g, positions, xrand.New(11), WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			plain, _ := New(g, positions, xrand.New(11), WithMode(mode))
			flows := func() (out, in []int64) {
				out, in = make([]int64, n), make([]int64, n)
				seen := map[[2]int]bool{}
				w.ForEachFlow(func(v, port int, x int64) {
					if seen[[2]int{v, port}] || x < 1 {
						t.Fatalf("%s %s: arc (%d,%d) reported twice or with %d walkers", g.Name(), mode, v, port, x)
					}
					seen[[2]int{v, port}] = true
					out[v] += x
					in[g.Neighbor(v, port)] += x
				})
				return out, in
			}
			if out, _ := flows(); sumInt64(out) != 0 {
				t.Fatalf("%s %s: first read reported flows", g.Name(), mode)
			}
			for r := 0; r < 60; r++ {
				before := make([]int64, n)
				for v := range before {
					before[v] = w.At(v)
				}
				w.Step()
				plain.Step()
				out, in := flows()
				for v := 0; v < n; v++ {
					if out[v] != before[v] {
						t.Fatalf("%s %s round %d: %d walkers left %d, want %d", g.Name(), mode, r, out[v], v, before[v])
					}
					if in[v] != w.At(v) {
						t.Fatalf("%s %s round %d: %d walkers reached %d, want %d", g.Name(), mode, r, in[v], v, w.At(v))
					}
				}
			}
			if !slices.Equal(w.Positions(), plain.Positions()) {
				t.Fatalf("%s %s: recording flows changed the trajectory", g.Name(), mode)
			}
			orig, _ := flows()
			w = w.Clone()
			if got, _ := flows(); !slices.Equal(got, orig) {
				t.Fatalf("%s %s: clone view %v, want %v", g.Name(), mode, got, orig)
			}
			w.Reset()
			if out, _ := flows(); sumInt64(out) != 0 {
				t.Fatalf("%s %s: Reset left flows in the view", g.Name(), mode)
			}
		}
	}
}

func sumInt64(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
