package rotorring

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestFacadeDefaultsSingleAgent(t *testing.T) {
	g := Ring(32)
	sim, err := newRotorSim(g)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NumAgents() != 1 {
		t.Fatalf("default agents = %d", sim.NumAgents())
	}
	cover, err := sim.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	// One agent, all pointers clockwise: covers in n-1 rounds.
	if cover != 31 {
		t.Fatalf("cover = %d", cover)
	}
}

func TestFacadeOptionValidation(t *testing.T) {
	g := Ring(16)
	if _, err := newRotorSim(g, Agents(0)); err == nil {
		t.Error("Agents(0) accepted")
	}
	if _, err := newRotorSim(g, Positions()); err == nil {
		t.Error("empty Positions accepted")
	}
	if _, err := newRotorSim(g, Place(PlacementPolicy(99))); err == nil {
		t.Error("bad placement accepted")
	}
	if _, err := newRotorSim(g, Pointers(PointerPolicy(99))); err == nil {
		t.Error("bad pointer policy accepted")
	}
	if _, err := newRotorSim(g, CustomPointers([]int{1})); err == nil {
		t.Error("short CustomPointers accepted")
	}
	if _, err := newRotorSim(Path(8), TrackDomains(), Positions(0)); err == nil {
		t.Error("TrackDomains on non-ring accepted")
	}
}

func TestPlacementPolicies(t *testing.T) {
	g := Ring(100)
	sim, err := newRotorSim(g, Agents(4), Place(PlaceEqualSpacing))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 25, 50, 75}
	got := sim.Positions()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("equal spacing = %v", got)
		}
	}

	sim, err = newRotorSim(g, Agents(3), Place(PlaceSingleNode))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sim.Positions() {
		if p != 0 {
			t.Fatalf("single-node placement = %v", sim.Positions())
		}
	}

	a, err := newRotorSim(g, Agents(5), Place(PlaceRandom), Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRotorSim(g, Agents(5), Place(PlaceRandom), Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Positions(), b.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("PlaceRandom not deterministic under Seed")
		}
	}
}

func TestWorstVsBestCoverOrdering(t *testing.T) {
	// Table 1's qualitative content at one scale: worst-case placement is
	// much slower than best-case, and the shapes match the predictions
	// within generous constants.
	const n, k = 512, 8
	worst, err := newRotorSim(Ring(n), Agents(k), Place(PlaceSingleNode), Pointers(PointerTowardStart))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := worst.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	best, err := newRotorSim(Ring(n), Agents(k), Place(PlaceEqualSpacing), Pointers(PointerNegative))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := best.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if cb >= cw {
		t.Fatalf("best placement (%d) not faster than worst (%d)", cb, cw)
	}
	if ratio := float64(cw) / PredictRotorWorstCover(n, k); ratio < 0.05 || ratio > 5 {
		t.Errorf("worst cover %d vs prediction %f (ratio %f)", cw, PredictRotorWorstCover(n, k), ratio)
	}
	if ratio := float64(cb) / PredictRotorBestCover(n, k); ratio < 0.05 || ratio > 20 {
		t.Errorf("best cover %d vs prediction %f (ratio %f)", cb, PredictRotorBestCover(n, k), ratio)
	}
}

func TestReturnTimeFacade(t *testing.T) {
	const n, k = 128, 4
	sim, err := newRotorSim(Ring(n), Agents(k), Place(PlaceEqualSpacing), Pointers(PointerNegative))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.ReturnTime(0)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 6: Θ(n/k) with modest constants.
	if rs.ReturnTime < int64(n/k)/2 || rs.ReturnTime > 8*int64(n/k) {
		t.Fatalf("return time %d far from n/k = %d", rs.ReturnTime, n/k)
	}
}

func TestDomainFacade(t *testing.T) {
	const n, k = 120, 3
	sim, err := newRotorSim(Ring(n), Agents(k), Place(PlaceEqualSpacing),
		Pointers(PointerNegative), TrackDomains())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CoverTime(0); err != nil {
		t.Fatal(err)
	}
	sim.Run(int64(4 * n))
	part, err := sim.Domains()
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Domains) != k {
		t.Fatalf("domains = %d", len(part.Domains))
	}
	lazy, err := sim.LazyDomains()
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Domains) != k {
		t.Fatalf("lazy domains = %d", len(lazy.Domains))
	}
	borders, err := sim.Borders()
	if err != nil {
		t.Fatal(err)
	}
	if len(borders) != k {
		t.Fatalf("borders = %d", len(borders))
	}
}

// TestTrackDomainsKeepsRingKernel: domain tracking reads the flow view, so
// a tracked ring keeps its ring tier — the packed kernel round when dense,
// the sparse round when sparse — and reports exactly the lazy domains and
// borders of a forced-generic run.
func TestTrackDomainsKeepsRingKernel(t *testing.T) {
	const n = 96
	for _, tc := range []struct {
		k    int
		tier string
	}{
		{24, "ring"},       // k ≥ n/4: the ring kernel, held rounds included
		{5, "ring"},        // k ≥ n/32: the packed round, held rounds generic
		{3, "ring-sparse"}, // n ≥ 8k²: the sparse ring round and its windows
	} {
		build := func(kernel KernelPolicy) *RotorSim {
			sim, err := newRotorSim(Ring(n), Agents(tc.k), Place(PlaceEqualSpacing),
				Pointers(PointerRandom), Seed(3), Kernel(kernel), TrackDomains())
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		fast, gen := build(KernelAuto), build(KernelGeneric)
		if fast.KernelName() != tc.tier || gen.KernelName() != "generic" {
			t.Fatalf("kernels %q and %q, want %s and generic", fast.KernelName(), gen.KernelName(), tc.tier)
		}
		for i := 0; i < 40; i++ {
			if err := fast.Run(29); err != nil {
				t.Fatal(err)
			}
			if err := gen.Run(29); err != nil {
				t.Fatal(err)
			}
			lf, errF := fast.LazyDomains()
			lg, errG := gen.LazyDomains()
			if !reflect.DeepEqual(lf, lg) || fmt.Sprint(errF) != fmt.Sprint(errG) {
				t.Fatalf("round %d: lazy domains %+v (%v) on %s, %+v (%v) on generic",
					fast.Round(), lf, errF, tc.tier, lg, errG)
			}
			bf, errF := fast.Borders()
			bg, errG := gen.Borders()
			if !reflect.DeepEqual(bf, bg) || fmt.Sprint(errF) != fmt.Sprint(errG) {
				t.Fatalf("round %d: borders %+v (%v) on %s, %+v (%v) on generic",
					fast.Round(), bf, errF, tc.tier, bg, errG)
			}
		}
	}
}

func TestDomainQueriesRequireTracking(t *testing.T) {
	sim, err := newRotorSim(Ring(32), Agents(2), Place(PlaceEqualSpacing))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.LazyDomains(); err == nil {
		t.Error("LazyDomains without tracking accepted")
	}
	if _, err := sim.Borders(); err == nil {
		t.Error("Borders without tracking accepted")
	}
	// Plain Domains works without tracking.
	if _, err := sim.Domains(); err != nil {
		t.Errorf("Domains: %v", err)
	}
}

func TestWalkSimFacade(t *testing.T) {
	const n, k = 256, 4
	w, err := newWalkSim(Ring(n), Agents(k), Place(PlaceEqualSpacing), Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumAgents() != k {
		t.Fatalf("walkers = %d", w.NumAgents())
	}
	sum, err := w.ExpectedCoverTime(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 16 || sum.Mean <= 0 || sum.Min > sum.Max {
		t.Fatalf("summary = %+v", sum)
	}
	// Theorem 5 shape with generous constants.
	pred := PredictWalkBestCover(n, k)
	if sum.Mean < pred/50 || sum.Mean > pred*50 {
		t.Errorf("expected cover %.0f vs prediction %.0f", sum.Mean, pred)
	}
}

func TestWalkGapsFacade(t *testing.T) {
	const n, k = 64, 4
	w, err := newWalkSim(Ring(n), Agents(k), Place(PlaceEqualSpacing), Seed(9))
	if err != nil {
		t.Fatal(err)
	}
	gs := w.MeasureGaps(1000, 100_000)
	if math.Abs(gs.MeanGap-float64(n)/float64(k))/(float64(n)/float64(k)) > 0.15 {
		t.Fatalf("mean gap %.2f, want ≈ %d", gs.MeanGap, n/k)
	}
}

func TestTheoryPredictions(t *testing.T) {
	if PredictRotorWorstCover(100, 1) != 10000 {
		t.Error("worst cover with k=1 should be n²")
	}
	if PredictRotorBestCover(100, 10) != 100 {
		t.Error("best cover shape (n/k)²")
	}
	if PredictReturnTime(100, 4) != 25 {
		t.Error("return shape n/k")
	}
	if PredictWalkBestCover(100, 1) != 10000 {
		t.Error("walk best with k=1 should be n²")
	}
	h := HarmonicNumber(4)
	if math.Abs(h-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Errorf("H_4 = %v", h)
	}
}

func TestDomainLimitProfileFacade(t *testing.T) {
	p, err := DomainLimitProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Fatalf("profile sum = %v", p.Sum())
	}
}

func TestContinuumFacade(t *testing.T) {
	m, err := NewContinuumModel([]float64{30, 20, 10}, ContinuumCyclic)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(1e5); err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Sizes() {
		if math.Abs(v-20) > 1 {
			t.Fatalf("cyclic model did not equalize: %v", m.Sizes())
		}
	}
}

func TestRemotePlacementFacade(t *testing.T) {
	p, err := NewRemotePlacement(1000, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsRemote(500) {
		t.Error("antipode should be remote")
	}
}

func TestCustomGraphBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(4, "diamond")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newRotorSim(g, Positions(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CoverTime(0); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegularFacadeDeterministic(t *testing.T) {
	a, err := RandomRegular(20, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegular(20, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		for p := 0; p < 3; p++ {
			if a.Neighbor(v, p) != b.Neighbor(v, p) {
				t.Fatal("RandomRegular not deterministic under seed")
			}
		}
	}
}

func TestTopologyFacades(t *testing.T) {
	cases := []struct {
		g     *Graph
		nodes int
	}{
		{Grid2D(3, 4), 12},
		{Torus2D(3, 3), 9},
		{Complete(5), 5},
		{Star(6), 6},
		{Hypercube(3), 8},
		{Lollipop(3, 2), 5},
		{CompleteBinaryTree(3), 7},
	}
	for _, tc := range cases {
		if tc.g.NumNodes() != tc.nodes {
			t.Errorf("%s: nodes = %d, want %d", tc.g.Name(), tc.g.NumNodes(), tc.nodes)
		}
		sim, err := newRotorSim(tc.g, Positions(0))
		if err != nil {
			t.Fatalf("%s: %v", tc.g.Name(), err)
		}
		if _, err := sim.CoverTime(0); err != nil {
			t.Errorf("%s: %v", tc.g.Name(), err)
		}
	}
}

// TestRunMatchesSteps: Run(r) ends where r Steps do. Without TrackDomains
// Run hands the rounds to the rotor, which on a sparse ring with n ≥ 8k²
// takes interaction-free windows; with it Run steps through the tracker.
func TestRunMatchesSteps(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, k int
		tier string
		opts []SimOption
	}{
		{"windowed ring", 512, 4, "ring-sparse", nil},
		{"tracked ring", 96, 24, "ring", []SimOption{TrackDomains()}},
	} {
		build := func() *RotorSim {
			opts := append([]SimOption{Agents(tc.k), Place(PlaceRandom),
				Pointers(PointerRandom), Seed(7)}, tc.opts...)
			sim, err := newRotorSim(Ring(tc.n), opts...)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		run, step := build(), build()
		if run.KernelName() != tc.tier {
			t.Fatalf("%s: kernel %q, want %q", tc.name, run.KernelName(), tc.tier)
		}
		for _, r := range []int64{0, 1, 37, 1000, 1 << 16} {
			if err := run.Run(r); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < r; i++ {
				step.Step()
			}
			if run.Round() != step.Round() || !reflect.DeepEqual(run.Positions(), step.Positions()) ||
				run.sys.CoverRound() != step.sys.CoverRound() {
				t.Fatalf("%s after Run(%d): round %d, positions %v, cover round %d; stepped %d, %v, %d",
					tc.name, r, run.Round(), run.Positions(), run.sys.CoverRound(),
					step.Round(), step.Positions(), step.sys.CoverRound())
			}
			for v := 0; v < tc.n; v++ {
				if run.Pointer(v) != step.Pointer(v) || run.Visits(v) != step.Visits(v) {
					t.Fatalf("%s after Run(%d): node %d pointer %d visits %d; stepped %d, %d",
						tc.name, r, v, run.Pointer(v), run.Visits(v), step.Pointer(v), step.Visits(v))
				}
			}
		}
		if run.sys.CoverRound() < 0 {
			t.Errorf("%s: never covered, so the cover round went unchecked", tc.name)
		}
	}
}

func TestRotorSimAccessors(t *testing.T) {
	sim, err := newRotorSim(Ring(16), Agents(2), Place(PlaceEqualSpacing))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10)
	if sim.Round() != 10 {
		t.Fatalf("Round = %d", sim.Round())
	}
	if sim.Covered() < 2 {
		t.Fatalf("Covered = %d", sim.Covered())
	}
	var visits int64
	for v := 0; v < 16; v++ {
		visits += sim.Visits(v)
		if p := sim.Pointer(v); p < 0 || p > 1 {
			t.Fatalf("Pointer(%d) = %d", v, p)
		}
	}
	if visits != 2*11 { // k·(t+1)
		t.Fatalf("visit mass = %d", visits)
	}
}

func TestFindLimitCycleFacade(t *testing.T) {
	sim, err := newRotorSim(Ring(16))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := sim.FindLimitCycle(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Period != 32 || lc.StabilizationRound != 0 {
		t.Fatalf("limit cycle = %+v", lc)
	}
}

func TestWalkSimAccessors(t *testing.T) {
	w, err := newWalkSim(Ring(32), Agents(3), Place(PlaceEqualSpacing), Seed(2))
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	w.Run(9)
	if w.Round() != 10 {
		t.Fatalf("Round = %d", w.Round())
	}
	if len(w.Positions()) != 3 {
		t.Fatalf("Positions = %v", w.Positions())
	}
	if w.Covered() < 3 {
		t.Fatalf("Covered = %d", w.Covered())
	}
	var visits int64
	for v := 0; v < 32; v++ {
		visits += w.Visits(v)
	}
	if visits != 3*11 {
		t.Fatalf("visit mass = %d", visits)
	}
	cover, err := w.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if cover <= 0 {
		t.Fatalf("cover = %d", cover)
	}
}

func TestPredictWalkWorstCover(t *testing.T) {
	if PredictWalkWorstCover(100, 1) != 10000 {
		t.Error("walk worst with k=1 should be n²")
	}
	if PredictWalkWorstCover(100, 4) >= 10000 {
		t.Error("walk worst should shrink with k")
	}
}

// TestKernelOptionFacade pins the public Kernel option's mapping onto both
// engines: forced tiers select the expected kernels, rotor results stay
// bit-identical across tiers, and invalid policies are rejected — so a
// reordering of the internal enums cannot silently remap the public API.
func TestKernelOptionFacade(t *testing.T) {
	g := Ring(64)

	mkRotor := func(p KernelPolicy) *RotorSim {
		t.Helper()
		sim, err := newRotorSim(g,
			Agents(32),
			Place(PlaceEqualSpacing),
			Pointers(PointerNegative),
			Kernel(p))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	if got := mkRotor(KernelFast).KernelName(); got != "ring" {
		t.Errorf("KernelFast rotor selected %q", got)
	}
	if got := mkRotor(KernelGeneric).KernelName(); got != "generic" {
		t.Errorf("KernelGeneric rotor selected %q", got)
	}
	fast, generic := mkRotor(KernelFast), mkRotor(KernelGeneric)
	cf, err := fast.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := generic.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if cf != cg {
		t.Errorf("cover time differs across tiers: fast %d, generic %d", cf, cg)
	}

	mkWalk := func(p KernelPolicy) *WalkSim {
		t.Helper()
		w, err := newWalkSim(g, Agents(4), Kernel(p))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if got := mkWalk(KernelFast).Mode(); got != "counts" {
		t.Errorf("KernelFast walk mode %q", got)
	}
	if got := mkWalk(KernelGeneric).Mode(); got != "agents" {
		t.Errorf("KernelGeneric walk mode %q", got)
	}
	// k = 4 on 64 nodes is sparse: auto must pick the per-agent engine.
	if got := mkWalk(KernelAuto).Mode(); got != "agents" {
		t.Errorf("sparse KernelAuto walk mode %q", got)
	}

	if _, err := newRotorSim(g, Kernel(KernelPolicy(99))); err == nil {
		t.Error("invalid kernel policy accepted")
	}
}
