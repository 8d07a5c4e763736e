package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/kernel"
	"rotorring/internal/xrand"
)

// This file is the kernel-equivalence differential suite: the packed
// ring/path round, fully active and held, and the sparse degree-2 rounds
// must match the generic engine configuration-for-configuration —
// pointers, agent counts, visit counters, coverage bookkeeping, the last
// round's flow view and (when enabled) the hash — on randomized
// initializations, including interleavings with held rounds, generic
// StepHeld(nil) rounds, and accessors that force occupied-list rebuilds or
// materialize the packed state. The sparse rounds keep the generic round's
// occupied list, so they must match its order too.

// diffConfig is one randomized differential scenario.
type diffConfig struct {
	ring    bool // ring vs path topology
	n       int
	k       int
	hash    bool // enable config hashing on both systems
	stacked bool // all agents start on one node, instead of at random
	rounds  int
}

func (c diffConfig) String() string {
	shape := "path"
	if c.ring {
		shape = "ring"
	}
	return fmt.Sprintf("%s(n=%d,k=%d,hash=%v,stacked=%v,rounds=%d)", shape, c.n, c.k, c.hash, c.stacked, c.rounds)
}

// sparse reports whether KernelAuto runs c's fully-active rounds on the
// sparse degree-2 round: below the packed round's threshold, or where the
// windows' entry rule holds.
func (c diffConfig) sparse() bool {
	return c.k < c.n/kernel.PackedFraction || c.n >= WindowSpread*c.k*c.k
}

// heldGeneric reports whether KernelAuto runs c's held rounds on the
// generic loop, below the packed held round's threshold.
func (c diffConfig) heldGeneric() bool { return c.k < c.n/kernel.DenseFraction }

// systemBuilder draws one random configuration for c and returns a factory
// that instantiates it under any kernel mode, so differential tests can run
// three and more arms (generic, serial fast, parallel at several shard
// counts) over identical initial state.
func systemBuilder(t *testing.T, c diffConfig, rng *xrand.Rand) func(mode KernelMode, extra ...Option) *System {
	t.Helper()
	var g *graph.Graph
	if c.ring {
		g = graph.Ring(c.n)
	} else {
		g = graph.Path(c.n)
	}
	positions := RandomPositions(c.n, c.k, rng)
	if c.stacked {
		positions = AllOnNode(rng.Intn(c.n), c.k)
	}
	pointers := PointersRandom(g, rng)
	return func(mode KernelMode, extra ...Option) *System {
		opts := []Option{
			WithAgentsAt(positions...),
			WithPointers(pointers),
			WithKernelMode(mode),
		}
		s, err := NewSystem(g, append(opts, extra...)...)
		if err != nil {
			t.Fatalf("%v: NewSystem: %v", c, err)
		}
		if c.hash {
			s.EnableConfigHash()
		}
		return s
	}
}

// buildArms constructs the same random configuration under each tier:
// forced onto the generic engine, forced onto the specialized kernel, and,
// when KernelAuto picks differently from both, under KernelAuto: on the
// sparse degree-2 round, or on the packed round with held rounds on the
// generic loop (auto is nil otherwise).
func buildArms(t *testing.T, c diffConfig, rng *xrand.Rand) (gen, fast, auto *System) {
	t.Helper()
	mk := systemBuilder(t, c, rng)
	gen = mk(KernelGeneric)
	fast = mk(KernelFast)
	if gen.KernelName() != "generic" {
		t.Fatalf("%v: forced generic selected %q", c, gen.KernelName())
	}
	want := "ring"
	if !c.ring {
		want = "path"
	}
	if fast.KernelName() != want {
		t.Fatalf("%v: forced fast selected %q, want %q", c, fast.KernelName(), want)
	}
	if c.sparse() {
		want += "-sparse"
	} else if !c.heldGeneric() {
		return gen, fast, nil
	}
	auto = mk(KernelAuto)
	if got := auto.KernelName(); got != want {
		t.Fatalf("%v: auto selected %q, want %q", c, got, want)
	}
	return gen, fast, auto
}

// compareArm compares an arm with the generic engine: every observable of
// compareSystems and, when the arm runs a sparse round, the occupied list
// in order, which the sparse round keeps exactly as the generic round
// builds it. A nil arm (the auto arm of a dense configuration) is skipped.
func compareArm(t *testing.T, c diffConfig, round int, gen, arm *System) {
	t.Helper()
	if arm == nil {
		return
	}
	compareSystems(t, c, round, gen, arm)
	if !strings.HasSuffix(arm.KernelName(), "-sparse") {
		return
	}
	if a, b := gen.Occupied(), arm.Occupied(); !equalInts(a, b) {
		t.Fatalf("%v round %d: occupied order differs: generic %v, sparse %v", c, round, a, b)
	}
}

// compareSystems asserts every observable piece of configuration state
// matches. The flow view is order-free and compared as a set. Called after
// every round, its visits and counts checks also pin what derives from
// them: the exit counters, the rounds of first visits and each round's
// visited nodes.
func compareSystems(t *testing.T, c diffConfig, round int, gen, fast *System) {
	t.Helper()
	fail := func(what string, v int, a, b any) {
		t.Fatalf("%v round %d: %s diverges at node %d: generic=%v fast=%v", c, round, what, v, a, b)
	}
	for v := 0; v < gen.n; v++ {
		if gen.Pointer(v) != fast.Pointer(v) {
			fail("pointer", v, gen.Pointer(v), fast.Pointer(v))
		}
		if gen.AgentsAt(v) != fast.AgentsAt(v) {
			fail("agents", v, gen.AgentsAt(v), fast.AgentsAt(v))
		}
		if gen.Visits(v) != fast.Visits(v) {
			fail("visits", v, gen.Visits(v), fast.Visits(v))
		}
	}
	if gen.Covered() != fast.Covered() {
		t.Fatalf("%v round %d: covered %d vs %d", c, round, gen.Covered(), fast.Covered())
	}
	if gen.CoverRound() != fast.CoverRound() {
		t.Fatalf("%v round %d: coverRound %d vs %d", c, round, gen.CoverRound(), fast.CoverRound())
	}
	if gen.Round() != fast.Round() {
		t.Fatalf("%v round %d: round %d vs %d", c, round, gen.Round(), fast.Round())
	}
	if gen.FullyActiveRounds() != fast.FullyActiveRounds() {
		t.Fatalf("%v round %d: fullyActive %d vs %d", c, round, gen.FullyActiveRounds(), fast.FullyActiveRounds())
	}
	if c.hash && gen.ConfigHash() != fast.ConfigHash() {
		t.Fatalf("%v round %d: hash %#x vs %#x", c, round, gen.ConfigHash(), fast.ConfigHash())
	}
	if !gen.StateEqual(fast) {
		t.Fatalf("%v round %d: StateEqual false after field-wise match", c, round)
	}
	if a, b := flowsOf(t, gen), flowsOf(t, fast); !maps.Equal(a, b) {
		t.Fatalf("%v round %d: flows differ: %v vs %v", c, round, a, b)
	}
}

// arc keys a flow by its source node and port.
type arc struct{ v, port int }

// flowsOf collects s's flow view, failing if an arc is reported twice or
// with a non-positive count.
func flowsOf(t *testing.T, s *System) map[arc]int64 {
	t.Helper()
	out := map[arc]int64{}
	s.ForEachFlow(func(v, port int, agents int64) {
		if _, dup := out[arc{v, port}]; dup || agents < 1 {
			t.Fatalf("flow view reports arc (%d,%d) twice or with %d agents", v, port, agents)
		}
		out[arc{v, port}] = agents
	})
	return out
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelDifferential is the main property test: random ring and path
// configurations stepped in lockstep on every tier, compared after every
// round. Runs a spread of sparse and dense populations, from random and
// all-on-one-node starts, with and without hashing.
func TestKernelDifferential(t *testing.T) {
	rng := xrand.New(0xd1ff)
	for trial := 0; trial < 120; trial++ {
		c := diffConfig{
			ring:   rng.Bool(),
			n:      3 + rng.Intn(70),
			hash:   rng.Bool(),
			rounds: 20 + rng.Intn(120),
		}
		// Sample k across sparse (k << n) and dense (k >> n) regimes.
		switch rng.Intn(3) {
		case 0:
			c.k = 1 + rng.Intn(3)
		case 1:
			c.k = 1 + rng.Intn(2*c.n)
		default:
			c.k = c.n + rng.Intn(9*c.n)
		}
		c.stacked = rng.Intn(4) == 0
		gen, fast, sparse := buildArms(t, c, rng)
		compareSystems(t, c, 0, gen, fast)
		compareArm(t, c, 0, gen, sparse)
		for r := 1; r <= c.rounds; r++ {
			gen.Step()
			fast.Step()
			compareSystems(t, c, r, gen, fast)
			if sparse != nil {
				sparse.Step()
				compareArm(t, c, r, gen, sparse)
			}
		}
		if a, b := sortedCopy(gen.Occupied()), sortedCopy(fast.Occupied()); !equalInts(a, b) {
			t.Fatalf("%v: occupied sets differ: %v vs %v", c, a, b)
		}
	}
}

// TestKernelDifferentialHeldInterleaving checks held rounds against the
// generic engine: on ring and path shapes StepHeld dispatches to the packed
// held round, so this is the primary differential for that tier, and it
// also covers the occupied-bookkeeping rebuilds when holds interleave with
// plain fast rounds. The fast system also takes generic StepHeld(nil)
// rounds between kernel rounds, where a stale mover source would leak
// into the flow view. The sparse arm interleaves its own rounds with the
// generic loop's held and StepHeld(nil) rounds.
func TestKernelDifferentialHeldInterleaving(t *testing.T) {
	rng := xrand.New(0x11e1d)
	for trial := 0; trial < 40; trial++ {
		c := diffConfig{ring: rng.Bool(), n: 4 + rng.Intn(40), hash: rng.Bool(), rounds: 60}
		c.k = 1 + rng.Intn(4*c.n)
		if trial%2 == 0 {
			c.k = 1 + rng.Intn(max(1, c.n/kernel.DenseFraction-1))
		}
		c.stacked = trial%4 == 0
		gen, fast, sparse := buildArms(t, c, rng)
		held := make([]int64, c.n)
		for r := 1; r <= c.rounds; r++ {
			switch rng.Intn(3) {
			case 0:
				for v := range held {
					held[v] = 0
				}
				for _, v := range gen.Occupied() {
					if rng.Bool() {
						held[v] = 1 + int64(rng.Intn(2))
					}
				}
				gen.StepHeld(held)
				fast.StepHeld(held)
				if sparse != nil {
					sparse.StepHeld(held)
				}
			case 1:
				gen.Step()
				fast.StepHeld(nil)
				if sparse != nil {
					sparse.StepHeld(nil)
				}
			default:
				gen.Step()
				fast.Step()
				if sparse != nil {
					sparse.Step()
				}
			}
			compareSystems(t, c, r, gen, fast)
			compareArm(t, c, r, gen, sparse)
		}
	}
}

// TestKernelDifferentialCoverAndCycle checks the two high-level drivers:
// cover times and limit cycles must agree between the engines.
func TestKernelDifferentialCoverAndCycle(t *testing.T) {
	rng := xrand.New(0xc0ffee)
	for trial := 0; trial < 25; trial++ {
		c := diffConfig{ring: rng.Bool(), n: 6 + rng.Intn(50)}
		c.k = 1 + rng.Intn(2*c.n)
		gen, fast, sparse := buildArms(t, c, rng)
		budget := int64(64 * c.n * c.n)
		cg, errG := gen.RunUntilCovered(budget)
		lcG, errLG := FindLimitCycle(gen, 4*budget, true)
		if errLG != nil {
			t.Fatalf("%v: generic limit cycle: %v", c, errLG)
		}
		for _, arm := range []*System{fast, sparse} {
			if arm == nil {
				continue
			}
			ca, errA := arm.RunUntilCovered(budget)
			if (errG == nil) != (errA == nil) {
				t.Fatalf("%v %s: cover errors diverge: %v vs %v", c, arm.KernelName(), errG, errA)
			}
			if cg != ca {
				t.Fatalf("%v %s: cover time %d vs %d", c, arm.KernelName(), cg, ca)
			}
			lcA, errA := FindLimitCycle(arm, 4*budget, true)
			if errA != nil {
				t.Fatalf("%v %s: limit cycle: %v", c, arm.KernelName(), errA)
			}
			if lcG.Period != lcA.Period || lcG.StabilizationRound != lcA.StabilizationRound {
				t.Fatalf("%v %s: limit cycle (λ=%d, μ=%d) vs (λ=%d, μ=%d)", c, arm.KernelName(),
					lcG.Period, lcG.StabilizationRound, lcA.Period, lcA.StabilizationRound)
			}
		}
		compareArm(t, c, int(gen.Round()), gen, sparse)
	}
}

// TestKernelDifferentialReset checks Reset and Clone keep the engines
// aligned (the specialized kernel swaps count buffers and the sparse round
// swaps its source and occupied lists, which Reset and Clone must be
// oblivious to).
func TestKernelDifferentialReset(t *testing.T) {
	rng := xrand.New(0x5e5e7)
	for _, c := range []diffConfig{
		{ring: true, n: 33, k: 70, hash: true, rounds: 37},
		{ring: true, n: 64, k: 5, hash: true, rounds: 37},
		{ring: false, n: 64, k: 9, hash: true, stacked: true, rounds: 37},
	} {
		gen, fast, sparse := buildArms(t, c, rng)
		arms := []*System{fast}
		if sparse != nil {
			arms = append(arms, sparse)
		}
		for r := 1; r <= c.rounds; r++ {
			gen.Step()
			for _, arm := range arms {
				arm.Step()
			}
		}
		cg := gen.Clone()
		cg.Step()
		for _, arm := range arms {
			ca := arm.Clone()
			ca.Step()
			compareArm(t, c, c.rounds+1, cg, ca)
		}

		gen.Reset()
		for _, arm := range arms {
			arm.Reset()
			compareArm(t, c, 0, gen, arm)
		}
		for r := 1; r <= 10; r++ {
			gen.Step()
			for _, arm := range arms {
				arm.Step()
				compareArm(t, c, r, gen, arm)
			}
		}
	}
}

// TestKernelPathTwoNodes exercises the path kernel's degenerate case: two
// endpoints and no interior. The split/assemble passes run on boundary
// terms alone, and a held round swaps the endpoints' movers. Fully-active
// rounds and held rounds (random holds, over-asking and negative entries
// included, all held, none held) are compared with the generic engine
// after every round, with and without hashing.
func TestKernelPathTwoNodes(t *testing.T) {
	g := graph.Path(2)
	rng := xrand.New(2)
	for _, hash := range []bool{false, true} {
		for _, counts := range [][]int64{{3, 0}, {1, 1}, {5, 2}} {
			mk := func(mode KernelMode) *System {
				s, err := NewSystem(g, WithAgentCounts(counts), WithKernelMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				if hash {
					s.EnableConfigHash()
				}
				return s
			}
			gen, fast := mk(KernelGeneric), mk(KernelFast)
			if fast.KernelName() != "path" {
				t.Fatalf("kernel %q", fast.KernelName())
			}
			c := diffConfig{n: 2, k: int(counts[0] + counts[1]), hash: hash}
			held := make([]int64, 2)
			for r := 1; r <= 64; r++ {
				switch r % 4 {
				case 0:
					gen.Step()
					fast.Step()
					compareSystems(t, c, r, gen, fast)
					continue
				case 1: // random holds in [-1, agents+1]
					for v := range held {
						held[v] = int64(rng.Intn(int(gen.AgentsAt(v))+3)) - 1
					}
				case 2: // every agent held
					held[0], held[1] = gen.AgentsAt(0), gen.AgentsAt(1)
				case 3: // none held, through the packed held round
					held[0], held[1] = 0, 0
				}
				gen.StepHeld(held)
				fast.StepHeld(held)
				compareSystems(t, c, r, gen, fast)
			}
		}
	}
}

// TestKernelAutoSelection pins the density heuristic, separately for
// fully-active and held rounds: on the ring and path, fully-active rounds
// take the packed kernel round at k ≥ n/kernel.PackedFraction unless the
// windows' entry rule holds, and the sparse degree-2 round otherwise; held
// rounds take the packed held round at k ≥ n/kernel.DenseFraction and the
// generic loop otherwise (heldOnKernel). Unsupported topologies — a cut
// ring included — run the generic engine. Selection follows the
// population and the topology as they change: a repaired sparse ring goes
// back to its sparse round, and agents joining past each threshold switch
// its tiers.
func TestKernelAutoSelection(t *testing.T) {
	ring, big := graph.Ring(64), graph.Ring(1024)
	cases := []struct {
		name       string
		g          *graph.Graph
		k          int
		opts       []Option
		want       string
		heldPacked bool
	}{
		{"dense ring", ring, 16, nil, "ring", true},
		{"packed ring", ring, 15, nil, "ring", false},
		{"packed ring at the threshold", big, 32, nil, "ring", false},
		{"sparse ring", big, 31, nil, "ring-sparse", false},
		{"windowed ring", ring, 2, nil, "ring-sparse", false},
		{"windows before density", ring, 3, nil, "ring", false},
		{"sparse ring forced", ring, 2, []Option{WithKernelMode(KernelFast)}, "ring", true},
		{"sparse ring forced generic", ring, 2, []Option{WithKernelMode(KernelGeneric)}, "generic", false},
		{"dense ring forced generic", ring, 64, []Option{WithKernelMode(KernelGeneric)}, "generic", false},
		{"dense path", graph.Path(32), 8, nil, "path", true},
		{"packed path", graph.Path(32), 7, nil, "path", false},
		{"sparse path", graph.Path(1024), 20, nil, "path-sparse", false},
		{"torus", graph.Torus2D(4, 4), 64, nil, "generic", false},
		{"sparse torus", graph.Torus2D(8, 8), 2, nil, "generic", false},
		{"torus forced fast", graph.Torus2D(4, 4), 64, []Option{WithKernelMode(KernelFast)}, "generic", false},
	}
	check := func(name string, s *System, want string, heldPacked bool) {
		t.Helper()
		if got := s.KernelName(); got != want {
			t.Errorf("%s: kernel %q, want %q", name, got, want)
		}
		if got := heldOnKernel(s); got != heldPacked {
			t.Errorf("%s: held rounds on the packed held round %v, want %v", name, got, heldPacked)
		}
	}
	for _, tc := range cases {
		opts := append([]Option{WithAgentsAt(EquallySpaced(tc.g.NumNodes(), tc.k)...)}, tc.opts...)
		s, err := NewSystem(tc.g, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, s, tc.want, tc.heldPacked)
	}

	s, err := NewSystem(big, WithAgentsAt(EquallySpaced(1024, 16)...))
	if err != nil {
		t.Fatal(err)
	}
	deleted := make([]bool, big.NumArcs())
	deleted[big.ArcID(0, graph.RingCW)] = true
	cut, _, err := graph.MaskEdges(big, deleted)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name       string
		mutate     func() error
		want       string
		heldPacked bool
	}{
		{"cut sparse ring", func() error { return s.Rewire(cut, make([]int, 1024)) }, "generic", false},
		{"repaired sparse ring", func() error { return s.Rewire(big, make([]int, 1024)) }, "ring-sparse", false},
		{"joined past the packed threshold", func() error { return s.AddAgents(EquallySpaced(1024, 16)...) }, "ring", false},
		{"joined past the held threshold", func() error { return s.AddAgents(EquallySpaced(1024, 224)...) }, "ring", true},
		{"left below the held threshold", func() error { return s.RemoveAgents(EquallySpaced(1024, 1)...) }, "ring", false},
		{"left below the packed threshold", func() error { return s.RemoveAgents(EquallySpaced(1024, 224)...) }, "ring-sparse", false},
	} {
		if err := step.mutate(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name, s, step.want, step.heldPacked)
	}
}

// heldOnKernel reports whether s runs held rounds on the kernel's packed
// held round rather than the generic loop: one held round on a clone
// leaves the clone packed only on the kernel.
func heldOnKernel(s *System) bool {
	c := s.Clone()
	c.StepHeldFunc(func(int, int64) int64 { return 0 })
	return c.st.Packed()
}

// TestConfigHashOptIn pins the tier-2 semantics: hashing is off by
// default, EnableConfigHash enables it from round zero, ConfigHash
// self-enables lazily, and a lazily enabled hash matches the
// incrementally maintained one on the same trajectory.
func TestConfigHashOptIn(t *testing.T) {
	g := graph.Ring(48)
	mk := func() *System {
		s, err := NewSystem(g, WithAgentsAt(EquallySpaced(48, 12)...), WithPointers(PointersUniform(g, 1)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	eager := mk()
	eager.EnableConfigHash()
	lazy := mk()
	if !eager.hashOn {
		t.Fatal("EnableConfigHash did not enable hashing")
	}
	if lazy.hashOn {
		t.Fatal("hashing enabled by default")
	}
	eager.Run(100)
	lazy.Run(100)
	if lazy.hashOn {
		t.Fatal("stepping enabled hashing")
	}
	if eager.ConfigHash() != lazy.ConfigHash() {
		t.Fatal("lazy ConfigHash disagrees with incrementally maintained hash")
	}
	if !lazy.hashOn {
		t.Fatal("ConfigHash did not self-enable hashing")
	}
	// From here both maintain incrementally; they must stay in lockstep
	// and agree with a from-scratch recomputation.
	eager.Run(50)
	lazy.Run(50)
	if eager.ConfigHash() != lazy.ConfigHash() || lazy.ConfigHash() != lazy.fullHash() {
		t.Fatal("incremental hash diverged after lazy enable")
	}

	// FindLimitCycle enables hashing as a side effect (documented).
	probe := mk()
	if _, err := FindLimitCycle(probe, 1<<22, false); err != nil {
		t.Fatal(err)
	}
	if !probe.hashOn {
		t.Fatal("FindLimitCycle did not enable hashing")
	}
}

// TestKernelShapeDetection covers the structural shape checks directly.
func TestKernelShapeDetection(t *testing.T) {
	if got := kernel.DetectShape(graph.Ring(17)); got != kernel.ShapeRing {
		t.Errorf("Ring(17): %v", got)
	}
	if got := kernel.DetectShape(graph.Path(9)); got != kernel.ShapePath {
		t.Errorf("Path(9): %v", got)
	}
	for _, g := range []*graph.Graph{
		graph.Torus2D(3, 3), graph.Complete(5), graph.Star(6), graph.Grid2D(2, 3),
	} {
		if got := kernel.DetectShape(g); got != kernel.ShapeGeneral {
			t.Errorf("%s: %v, want general", g.Name(), got)
		}
	}
	// A shuffled ring keeps the cycle but may lose the canonical port
	// layout; detection must only accept the exact layout the kernel
	// assumes. (Shuffling can also produce the identity permutation, so
	// accept either classification consistently with Validate.)
	sh := graph.Ring(12).ShufflePorts(xrand.New(5))
	if kernel.DetectShape(sh) == kernel.ShapeRing {
		canonical := true
		for v := 0; v < 12 && canonical; v++ {
			canonical = sh.Neighbor(v, graph.RingCW) == (v+1)%12
		}
		if !canonical {
			t.Error("shuffled non-canonical ring misdetected as ring shape")
		}
	}
}

// TestKernelDifferentialParallel is the serial-identity property for the
// parallel ring stepper: at every shard count (including the GOMAXPROCS
// default, shards=0) a KernelParallel system must match the generic engine
// and the serial fast kernel round for round, across plain, held and
// generic StepHeld(nil) rounds.
// Bit-identity at any shard count is what lets BENCH results from parallel
// runs be compared against serial fixtures.
func TestKernelDifferentialParallel(t *testing.T) {
	rng := xrand.New(0x9a7a11e1)
	shardCounts := []int{0, 1, 2, 3, 5, 8, 16}
	for trial := 0; trial < 30; trial++ {
		c := diffConfig{ring: true, n: 4 + rng.Intn(60), hash: rng.Bool(), rounds: 48}
		c.k = 1 + rng.Intn(4*c.n)
		shards := shardCounts[trial%len(shardCounts)]
		mk := systemBuilder(t, c, rng)
		gen := mk(KernelGeneric)
		fast := mk(KernelFast)
		par := mk(KernelParallel, WithParallelShards(shards))
		if got := par.KernelName(); got != "ring-parallel" {
			t.Fatalf("%v shards=%d: parallel mode selected %q", c, shards, got)
		}
		held := make([]int64, c.n)
		for r := 1; r <= c.rounds; r++ {
			switch rng.Intn(4) {
			case 0:
				for v := range held {
					held[v] = 0
				}
				for _, v := range gen.Occupied() {
					if rng.Bool() {
						held[v] = 1 + int64(rng.Intn(2))
					}
				}
				gen.StepHeld(held)
				fast.StepHeld(held)
				par.StepHeld(held)
			case 1:
				gen.Step()
				fast.StepHeld(nil)
				par.Step()
			case 2:
				gen.Step()
				fast.Step()
				par.StepHeld(nil)
			default:
				gen.Step()
				fast.Step()
				par.Step()
			}
			compareSystems(t, c, r, gen, par)
			compareSystems(t, c, r, fast, par)
		}
	}
}

// TestKernelParallelSelection pins how KernelParallel composes with shape
// detection: only the flat ring layout gets the parallel stepper; path and
// unsupported topologies keep their serial choice.
func TestKernelParallelSelection(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"ring", graph.Ring(64), "ring-parallel"},
		{"path", graph.Path(64), "path"},
		{"torus", graph.Torus2D(8, 8), "generic"},
	}
	for _, tc := range cases {
		s, err := NewSystem(tc.g,
			WithAgentsAt(EquallySpaced(tc.g.NumNodes(), 16)...),
			WithKernelMode(KernelParallel),
			WithParallelShards(4))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.KernelName(); got != tc.want {
			t.Errorf("%s: kernel %q, want %q", tc.name, got, tc.want)
		}
	}
	if _, err := NewSystem(graph.Ring(8), WithAgentsAt(0), WithParallelShards(-1)); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestKernelParallelResetClone checks that Reset and Clone keep a parallel
// system aligned with the generic engine, and that a clone steps on its own
// stepper instance (the parallel stepper carries per-shard merge scratch, so
// sharing one between systems would corrupt both).
func TestKernelParallelResetClone(t *testing.T) {
	rng := xrand.New(0xc10e4e)
	c := diffConfig{ring: true, n: 41, k: 90, hash: true, rounds: 25}
	mk := systemBuilder(t, c, rng)
	gen := mk(KernelGeneric)
	par := mk(KernelParallel, WithParallelShards(3))
	for r := 1; r <= c.rounds; r++ {
		gen.Step()
		par.Step()
	}
	cg, cp := gen.Clone(), par.Clone()
	// Interleave: advancing the clone must not disturb the original, and
	// vice versa, even though both run the parallel stepper.
	for r := 0; r < 10; r++ {
		cg.Step()
		cp.Step()
		gen.Step()
		par.Step()
	}
	compareSystems(t, c, c.rounds+10, cg, cp)
	compareSystems(t, c, c.rounds+10, gen, par)

	gen.Reset()
	par.Reset()
	compareSystems(t, c, 0, gen, par)
	for r := 1; r <= 10; r++ {
		gen.Step()
		par.Step()
		compareSystems(t, c, r, gen, par)
	}
}

// FuzzKernelEquivalence is a native fuzz harness over the differential
// property; `go test` runs the seed corpus, `go test -fuzz` explores.
// Sparse populations (k < n/kernel.DenseFraction) also run the KernelAuto
// arm on the sparse degree-2 round, and stacked starts put every agent on
// one node, so that nodes hold many agents.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint16(5), true, false, false)
	f.Add(uint64(2), uint8(40), uint16(200), false, true, false)
	f.Add(uint64(3), uint8(3), uint16(1), true, true, false)
	f.Add(uint64(4), uint8(77), uint16(9), true, true, true)
	f.Add(uint64(5), uint8(61), uint16(15), false, false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, kRaw uint16, ring, hash, stacked bool) {
		n := 3 + int(nRaw)%80
		k := 1 + int(kRaw)%(4*n)
		c := diffConfig{ring: ring, n: n, k: k, hash: hash, stacked: stacked, rounds: 48}
		rng := xrand.New(seed)
		gen, fast, sparse := buildArms(t, c, rng)
		for r := 1; r <= c.rounds; r++ {
			gen.Step()
			fast.Step()
			compareSystems(t, c, r, gen, fast)
			if sparse != nil {
				sparse.Step()
				compareArm(t, c, r, gen, sparse)
			}
		}
	})
}

// FuzzKernelHeldEquivalence fuzzes the held-round tier: random hold
// interleavings on ring and path shapes, the packed held round vs the generic
// engine, with occasional generic StepHeld(nil) rounds in between. holdSeed
// decouples the hold pattern from the configuration draw so the fuzzer can
// vary them independently. Sparse populations add the KernelAuto arm, whose
// held rounds run the generic loop between its sparse rounds.
func FuzzKernelHeldEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(12), uint16(5), true, false, false)
	f.Add(uint64(2), uint64(9), uint8(40), uint16(200), false, true, false)
	f.Add(uint64(3), uint64(11), uint8(3), uint16(1), true, true, false)
	f.Add(uint64(4), uint64(13), uint8(77), uint16(9), true, true, true)
	f.Add(uint64(5), uint64(17), uint8(61), uint16(15), false, false, true)
	f.Fuzz(func(t *testing.T, seed, holdSeed uint64, nRaw uint8, kRaw uint16, ring, hash, stacked bool) {
		n := 3 + int(nRaw)%80
		k := 1 + int(kRaw)%(4*n)
		c := diffConfig{ring: ring, n: n, k: k, hash: hash, stacked: stacked, rounds: 40}
		rng := xrand.New(seed)
		gen, fast, sparse := buildArms(t, c, rng)
		hrng := xrand.New(holdSeed)
		held := make([]int64, n)
		for r := 1; r <= c.rounds; r++ {
			switch hrng.Intn(5) {
			case 0:
				// A generic round between packed held rounds.
				gen.Step()
				fast.StepHeld(nil)
				if sparse != nil {
					sparse.StepHeld(nil)
				}
			case 1:
				// A fully-active round: kernel and sparse tiers.
				gen.Step()
				fast.Step()
				if sparse != nil {
					sparse.Step()
				}
			default:
				for v := range held {
					held[v] = 0
				}
				for _, v := range gen.Occupied() {
					if hrng.Bool() {
						held[v] = int64(hrng.Intn(int(gen.AgentsAt(v)) + 1))
					}
				}
				gen.StepHeld(held)
				fast.StepHeld(held)
				if sparse != nil {
					sparse.StepHeld(held)
				}
			}
			compareSystems(t, c, r, gen, fast)
			compareArm(t, c, r, gen, sparse)
		}
	})
}

// windowArms builds c under the generic engine and under KernelAuto, and
// checks that the auto arm runs the sparse round and tries interaction-free
// windows.
func windowArms(t *testing.T, c diffConfig, rng *xrand.Rand) (gen, auto *System) {
	t.Helper()
	mk := systemBuilder(t, c, rng)
	gen, auto = mk(KernelGeneric), mk(KernelAuto)
	if !strings.HasSuffix(auto.KernelName(), "-sparse") || !auto.windowsOn() {
		t.Fatalf("%v: auto arm %q does not try windows", c, auto.KernelName())
	}
	return gen, auto
}

// runWindowOps applies ops, two bytes per call, to both arms: Run(r) or
// RunUntilCovered(round + r) with r < 2^15. The generic arm steps round by
// round; the auto arm takes its windows. Both must return the same and end
// in the same state, occupied order included, after every call.
func runWindowOps(t *testing.T, c diffConfig, gen, auto *System, ops []byte) {
	t.Helper()
	for i := 0; i+1 < len(ops); i += 2 {
		r := int64(ops[i]>>1) | int64(ops[i+1])<<7
		if ops[i]&1 == 0 {
			gen.Run(r)
			auto.Run(r)
		} else {
			budget := gen.Round() + r
			cg, errG := gen.RunUntilCovered(budget)
			ca, errA := auto.RunUntilCovered(budget)
			if cg != ca || (errG == nil) != (errA == nil) {
				t.Fatalf("%v: RunUntilCovered(%d) = %d, %v on generic, %d, %v with windows", c, budget, cg, errG, ca, errA)
			}
		}
		compareArm(t, c, int(gen.Round()), gen, auto)
	}
}

// windowOps encodes calls for runWindowOps: r ≥ 0 is Run(r), r < 0 is
// RunUntilCovered(round − r).
func windowOps(rs ...int) []byte {
	var ops []byte
	for _, r := range rs {
		cover := 0
		if r < 0 {
			r, cover = -r, 1
		}
		ops = append(ops, byte(r<<1|cover), byte(r>>7))
	}
	return ops
}

// TestSparseWindows checks interaction-free windows against round-by-round
// stepping at random budgets: after every Run and RunUntilCovered call the
// auto arm must equal the generic engine, occupied order included. The
// explicit cases pin windows that a budget cuts mid-way, a cover round
// inside a window, a lone agent bouncing off path endpoints, stacked
// starts, and two agents closing in head-on, whose window must end while
// they are still 3 apart; windowRounds shows that the windows ran.
func TestSparseWindows(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ring      bool
		n         int
		positions []int
		pointers  func(g *graph.Graph) []int
		ops       []int
		// want checks windowRounds after the ops.
		want func(s *System) bool
	}{
		// A lone agent has no gap limit: the budget cuts every window, and
		// the cover round falls inside one.
		{"lone ring agent", true, 64, []int{5}, nil, []int{7, 0, 33, -100, -1 << 14},
			func(s *System) bool { return s.windowRounds == s.Round() && s.CoverRound() == s.Round() }},
		{"lone path agent at an endpoint", false, 40, []int{0}, nil, []int{3, -1 << 14, 500},
			func(s *System) bool { return s.windowRounds == s.Round() && s.Covered() == 40 }},
		{"lone agent at the far endpoint", false, 40, []int{39}, nil, []int{-1 << 14},
			func(s *System) bool { return s.windowRounds == s.Round() && s.CoverRound() == s.Round() }},
		// A gap of 512 opens a window of 255 rounds; Run(100) ends inside it.
		{"budget ends mid-window", true, 1024, []int{0, 512}, nil, []int{100},
			func(s *System) bool { return s.windowRounds == 100 }},
		{"stacked start", true, 2048, AllOnNode(7, 4), nil, []int{-1 << 14, 3000},
			func(s *System) bool { return s.windowRounds > 0 && s.windowRounds < s.Round() }},
		// Agents 6 apart run straight at each other: a window of 2 rounds
		// leaves them 2 apart, and the next round, stepped, collides them.
		{"head-on", true, 1024, []int{100, 106}, func(g *graph.Graph) []int {
			p := PointersUniform(g, 0)
			p[104], p[105], p[106] = 1, 1, 1
			return p
		}, []int{4},
			func(s *System) bool { return s.windowRounds == 2 }},
	} {
		for _, hash := range []bool{false, true} {
			g := graph.Ring(tc.n)
			if !tc.ring {
				g = graph.Path(tc.n)
			}
			pointers := PointersRandom(g, xrand.New(uint64(tc.n)))
			if tc.pointers != nil {
				pointers = tc.pointers(g)
			}
			mk := func(mode KernelMode) *System {
				s, err := NewSystem(g, WithAgentsAt(tc.positions...), WithPointers(pointers), WithKernelMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				if hash {
					s.EnableConfigHash()
				}
				return s
			}
			c := diffConfig{ring: tc.ring, n: tc.n, k: len(tc.positions), hash: hash}
			gen, auto := mk(KernelGeneric), mk(KernelAuto)
			if !auto.windowsOn() {
				t.Fatalf("%s: windows off", tc.name)
			}
			runWindowOps(t, c, gen, auto, windowOps(tc.ops...))
			if !tc.want(auto) {
				t.Errorf("%s (hash=%v): %d window rounds of %d (cover round %d)",
					tc.name, hash, auto.windowRounds, auto.Round(), auto.CoverRound())
			}
		}
	}

	rng := xrand.New(0x3a1d0)
	var windowRounds, rounds int64
	for trial := 0; trial < 60; trial++ {
		c := diffConfig{ring: rng.Bool(), n: 64 + rng.Intn(3000), hash: rng.Bool(), stacked: rng.Intn(4) == 0}
		c.k = 1 + rng.Intn(maxWindowK(c.n))
		gen, auto := windowArms(t, c, rng)
		rs := make([]int, 1+rng.Intn(8))
		for i := range rs {
			if rs[i] = rng.Intn(4000); rng.Bool() {
				rs[i] = -rs[i]
			}
		}
		runWindowOps(t, c, gen, auto, windowOps(rs...))
		windowRounds += auto.windowRounds
		rounds += auto.Round()
	}
	if windowRounds == 0 {
		t.Fatal("no window ran")
	}
	t.Logf("%d of %d rounds ran in windows", windowRounds, rounds)
}

// maxWindowK is the most agents the entry rule admits on n nodes.
func maxWindowK(n int) int {
	k := 1
	for n >= WindowSpread*(k+1)*(k+1) {
		k++
	}
	return k
}

// maxSparseK is the most agents for which KernelAuto runs fully-active
// rounds on n nodes of a ring or path on the sparse round, 0 if none: those
// below the packed round's threshold and those in the windows' band.
func maxSparseK(n int) int {
	k := n/kernel.PackedFraction - 1
	for n >= WindowSpread*(k+1)*(k+1) {
		k++
	}
	return max(k, 0)
}

// FuzzSparseWindows fuzzes interaction-free windows against the generic
// engine: a sparse ring or path with k under the entry rule, from a random
// or stacked start, hashed or not, driven through a fuzzed sequence of Run
// and RunUntilCovered calls (see runWindowOps).
func FuzzSparseWindows(f *testing.F) {
	// A lone agent (kRaw = 0) opens a window every round: budgets end
	// inside one, the cover round falls inside one, and on the path the
	// agent passes both endpoints inside them.
	f.Add(uint64(1), uint16(1000), uint8(0), true, false, false, windowOps(100, 7))
	f.Add(uint64(2), uint16(200), uint8(0), true, true, false, windowOps(-1<<14))
	f.Add(uint64(3), uint16(48), uint8(0), false, true, false, windowOps(5, -3000))
	f.Add(uint64(4), uint16(2500), uint8(7), false, false, true, windowOps(300, -1<<14, 40))
	f.Add(uint64(5), uint16(4000), uint8(20), true, true, false, windowOps(1000, 1, 2, -5000))
	f.Add(uint64(6), uint16(1000), uint8(1), true, false, false, windowOps(100, 7, -4000))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, kRaw uint8, ring, hash, stacked bool, ops []byte) {
		n := 16 + int(nRaw)%4000
		c := diffConfig{ring: ring, n: n, k: 1 + int(kRaw)%maxWindowK(n), hash: hash, stacked: stacked}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		gen, auto := windowArms(t, c, xrand.New(seed))
		runWindowOps(t, c, gen, auto, ops)
	})
}

// FuzzKernelParallelEquivalence fuzzes the parallel ring stepper's
// serial-identity property across shard counts, mixing plain, held and
// generic StepHeld(nil) rounds.
func FuzzKernelParallelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint16(5), uint8(2), false)
	f.Add(uint64(2), uint8(40), uint16(200), uint8(7), true)
	f.Add(uint64(3), uint8(3), uint16(1), uint8(16), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, kRaw uint16, shardsRaw uint8, hash bool) {
		n := 3 + int(nRaw)%80
		k := 1 + int(kRaw)%(4*n)
		shards := int(shardsRaw) % 17 // 0 = GOMAXPROCS default
		c := diffConfig{ring: true, n: n, k: k, hash: hash, rounds: 40}
		rng := xrand.New(seed)
		mk := systemBuilder(t, c, rng)
		gen := mk(KernelGeneric)
		par := mk(KernelParallel, WithParallelShards(shards))
		held := make([]int64, n)
		for r := 1; r <= c.rounds; r++ {
			switch rng.Intn(4) {
			case 0:
				for v := range held {
					held[v] = 0
				}
				for _, v := range gen.Occupied() {
					if rng.Bool() {
						held[v] = 1 + int64(rng.Intn(2))
					}
				}
				gen.StepHeld(held)
				par.StepHeld(held)
			case 1:
				gen.Step()
				par.StepHeld(nil)
			default:
				gen.Step()
				par.Step()
			}
			compareSystems(t, c, r, gen, par)
		}
	})
}
