package engine

import (
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/xrand"
)

// This file defines the fixed per-kernel throughput workloads shared by the
// root package's BenchmarkKernel benchmarks and the BENCH_engine.json
// trajectory (TestEmitBenchJSON): the rotor tiers (generic engine, ring
// kernel, the scheduled and mission paths) on the acceptance configuration
// Ring(2^16), the scheduled path at the density of scenario-mix's dense
// delay cells, the sparse ring round and the scheduled path against the
// generic engine in the paper's k ≪ n regime, the packed round against the
// generic engine in the band it took over from the sparse round, the
// k ≪ n regime's interaction-free windows, the serial-versus-parallel ring
// pair at 2^24 nodes,
// and one walk pair (per-agent versus counts-based) at k = 10·n. Keeping
// the workload in one place means `make bench-kernels` and the committed
// JSON always measure the same thing.

// KernelBenchCase is one fixed kernel-tier throughput workload.
type KernelBenchCase struct {
	// Name identifies the case ("rotor-generic", "rotor-ring",
	// "walk-agents", "walk-counts") and doubles as the sub-benchmark name.
	Name string
	// Process is "rotor" or "walk".
	Process string
	// Graph names the topology, K the agent/walker count.
	Graph string
	K     int64
	// Baseline names the generic-tier counterpart this case's speedup is
	// stated against; empty for the baselines themselves.
	Baseline string
	// Rounds overrides the measured round count (0 = the shared default
	// in measureKernels): heavyweight cases run fewer rounds, after a
	// proportionally shorter warmup in NewStepper, and the light sparse
	// pairs more, so that their clocks read milliseconds.
	Rounds int
	// Chunk is how many rounds one call of the stepper advances (0 = 1).
	// The window pair advances through core.System.Run in fixed chunks,
	// because interaction-free windows open only inside Run and
	// RunUntilCovered.
	Chunk int
	// NewStepper builds a fresh simulator, runs a short warmup so the
	// measurement starts in the steady state (spread-out occupancy, warm
	// caches), and returns a function advancing Chunk synchronous rounds.
	NewStepper func() (func(), error)
}

// kernelBenchWarmup is the number of pre-measurement rounds NewStepper
// runs: enough for an initial placement to spread into its steady-state
// occupancy profile.
const kernelBenchWarmup = 256

// Kernel benchmark scales: the rotor pair runs the ISSUE's acceptance
// configuration (ring of 2^16 nodes, dense population), the walk pair the
// k = 10·n regime where counts-based stepping matters.
const (
	kernelBenchRotorN = 1 << 16
	kernelBenchRotorK = kernelBenchRotorN / 2
	kernelBenchWalkN  = 1 << 13
	kernelBenchWalkK  = 10 * kernelBenchWalkN
)

// The sparse pair runs the paper's own regime, k ≪ n: the largest ring of
// the paper tables with 64 agents, below the packed round's density
// threshold (n/32), where KernelAuto runs the sparse ring round. A round
// costs about a microsecond, so the pair measures many more rounds than the
// default.
const (
	kernelBenchSparseN      = 4096
	kernelBenchSparseK      = 64
	kernelBenchSparseRounds = 1 << 14
)

// The packed pair runs the band between the packed round's density
// threshold and the held rounds' (n/32 ≤ k < n/4), where KernelAuto has
// run fully-active rounds bit-sliced since they replaced the sparse round
// there: a paper-grid cover cell's size with 64 agents. Rounds cost a
// fraction of a microsecond.
const (
	kernelBenchPackedN      = 512
	kernelBenchPackedK      = 64
	kernelBenchPackedRounds = 1 << 16
)

// The small delay case runs a permanent delay schedule on Ring(128) with
// 32 agents, the size and density of scenario-mix's dense delay cells, at
// the held rounds' threshold (k = n/DenseFraction), so that they run the
// packed held round. Rounds cost a fraction of a microsecond.
const (
	kernelBenchDelayN      = 128
	kernelBenchDelayK      = 32
	kernelBenchDelayRounds = 1 << 16
)

// The window pair runs the regime where interaction-free windows open: a
// few agents on a large ring, n = 64k², from a random start. It advances
// in Run chunks against its generic-engine twin.
const (
	kernelBenchWindowN      = 4096
	kernelBenchWindowK      = 8
	kernelBenchWindowChunk  = 256
	kernelBenchWindowRounds = 1 << 18
)

// The big-ring pair exercises the parallel-within-round stepper at a scale
// where sharding pays: a round touches ~1 GB of state, far past any cache.
// Rounds cost ~100 ms each, so the pair overrides its measured round count
// and warms up only a few rounds.
const (
	kernelBenchBigN      = 1 << 24
	kernelBenchBigK      = 1 << 23
	kernelBenchBigWarmup = 8
	kernelBenchBigRounds = 12
)

// KernelBenchCases returns the fixed workload set, baselines first.
func KernelBenchCases() []KernelBenchCase {
	// rotor builds Ring(n) with k agents from a random start under mode and
	// checks the tier it selected. Random placement and pointers give
	// irregular occupancy — the steady-state shape of real simulations —
	// rather than the lock-step march of an equally-spaced all-clockwise
	// start.
	rotor := func(n, k, warmup, chunk int, mode core.KernelMode, want string) func() (func(), error) {
		return func() (func(), error) {
			g := graph.Ring(n)
			rng := xrand.New(1)
			sys, err := core.NewSystem(g,
				core.WithAgentsAt(core.RandomPositions(n, k, rng)...),
				core.WithPointers(core.PointersRandom(g, rng)),
				core.WithKernelMode(mode))
			if err != nil {
				return nil, err
			}
			if sys.KernelName() != want {
				return nil, fmt.Errorf("engine: kernel %q selected, want %q", sys.KernelName(), want)
			}
			sys.Run(int64(warmup))
			if chunk == 0 {
				return sys.Step, nil
			}
			return func() { sys.Run(int64(chunk)) }, nil
		}
	}
	walk := func(mode randwalk.Mode) func() (func(), error) {
		return func() (func(), error) {
			g := graph.Ring(kernelBenchWalkN)
			w, err := randwalk.New(g,
				core.EquallySpaced(kernelBenchWalkN, kernelBenchWalkK),
				xrand.New(1), randwalk.WithMode(mode))
			if err != nil {
				return nil, err
			}
			w.Run(kernelBenchWarmup)
			return w.Step, nil
		}
	}
	// The schedule-path cases measure the perturbation subsystem's stepping
	// cost: a rotor workload behind the schedule runner with a permanent
	// delay regime, so every round pays the counter-based hold draws plus
	// a held round — the steady-state cost of the scheduled path. On the
	// dense rings that is a packed held round, on the sparse pair's ring a
	// generic-loop round, each drawing at the occupied nodes as the round
	// asks for them. Where stated against the generic engine on the same
	// ring, the gap is the price of the scenario layer, not of the wrapper
	// (whose pass-through rounds delegate straight to the inner hot loop).
	scheduled := func(n, k int) func() (func(), error) {
		return func() (func(), error) {
			g := graph.Ring(n)
			rng := xrand.New(1)
			env := &JobEnv{
				Graph: g,
				Cell: Cell{Topology: "ring", N: n, K: k,
					Placement: PlaceRandom, Pointer: PtrRandom},
				Positions: core.RandomPositions(n, k, rng),
				Seed:      1,
				RNG:       rng,
			}
			p, err := newRotorProc(env)
			if err != nil {
				return nil, err
			}
			inst, err := parseSchedule("delay:p=0.25")
			if err != nil {
				return nil, err
			}
			sp, err := newScheduledProc(p, ProcRotor, inst, env)
			if err != nil {
				return nil, err
			}
			for i := 0; i < kernelBenchWarmup; i++ {
				sp.Step()
			}
			return sp.Step, nil
		}
	}
	// The mission-path case measures the mission runner's stepping cost: the
	// same dense rotor workload with a patrol mission state attached, so
	// every round pays the ring kernel plus one read of the flow view, O(n)
	// with k = n/2, and the per-arc staleness bookkeeping. The horizon is set far beyond
	// the measurement so Done never fires. Stated against rotor-generic,
	// it shows what a mission costs on top of the kernel it keeps.
	mission := func() (func(), error) {
		g := graph.Ring(kernelBenchRotorN)
		rng := xrand.New(1)
		env := &JobEnv{
			Graph: g,
			Cell: Cell{Topology: "ring", N: kernelBenchRotorN, K: kernelBenchRotorK,
				Placement: PlaceRandom, Pointer: PtrRandom},
			Positions: core.RandomPositions(kernelBenchRotorN, kernelBenchRotorK, rng),
			Seed:      1,
			RNG:       rng,
		}
		p, err := newRotorProc(env)
		if err != nil {
			return nil, err
		}
		mi, err := parseMission("patrol:horizon=1099511627776,warmup=0")
		if err != nil {
			return nil, err
		}
		st, err := mi.def.New(mi.plan, ProcRotor, env, p)
		if err != nil {
			return nil, err
		}
		for i := 0; i < kernelBenchWarmup; i++ {
			p.Step()
			st.Observe(p.Round())
		}
		return func() {
			p.Step()
			st.Observe(p.Round())
		}, nil
	}
	ringName := fmt.Sprintf("ring(%d)", kernelBenchRotorN)
	sparseRing := fmt.Sprintf("ring(%d)", kernelBenchSparseN)
	packedRing := fmt.Sprintf("ring(%d)", kernelBenchPackedN)
	delayRing := fmt.Sprintf("ring(%d)", kernelBenchDelayN)
	windowRing := fmt.Sprintf("ring(%d)", kernelBenchWindowN)
	walkRing := fmt.Sprintf("ring(%d)", kernelBenchWalkN)
	bigRing := fmt.Sprintf("ring(%d)", kernelBenchBigN)
	return []KernelBenchCase{
		{Name: "rotor-generic", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			NewStepper: rotor(kernelBenchRotorN, kernelBenchRotorK, kernelBenchWarmup, 0, core.KernelGeneric, "generic")},
		{Name: "rotor-ring", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: rotor(kernelBenchRotorN, kernelBenchRotorK, kernelBenchWarmup, 0, core.KernelFast, "ring")},
		{Name: "rotor-sched-delay", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: scheduled(kernelBenchRotorN, kernelBenchRotorK)},
		{Name: "rotor-sched-delay-small", Process: "rotor", Graph: delayRing, K: kernelBenchDelayK,
			Rounds: kernelBenchDelayRounds, NewStepper: scheduled(kernelBenchDelayN, kernelBenchDelayK)},
		{Name: "rotor-mission-patrol", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: mission},
		{Name: "rotor-sparse-generic", Process: "rotor", Graph: sparseRing, K: kernelBenchSparseK,
			Rounds: kernelBenchSparseRounds, NewStepper: rotor(kernelBenchSparseN, kernelBenchSparseK, kernelBenchWarmup, 0, core.KernelGeneric, "generic")},
		{Name: "rotor-sparse", Process: "rotor", Graph: sparseRing, K: kernelBenchSparseK,
			Baseline: "rotor-sparse-generic", Rounds: kernelBenchSparseRounds,
			NewStepper: rotor(kernelBenchSparseN, kernelBenchSparseK, kernelBenchWarmup, 0, core.KernelAuto, "ring-sparse")},
		{Name: "rotor-sched-delay-sparse", Process: "rotor", Graph: sparseRing, K: kernelBenchSparseK,
			Baseline: "rotor-sparse-generic", Rounds: kernelBenchSparseRounds,
			NewStepper: scheduled(kernelBenchSparseN, kernelBenchSparseK)},
		{Name: "rotor-packed-generic", Process: "rotor", Graph: packedRing, K: kernelBenchPackedK,
			Rounds: kernelBenchPackedRounds, NewStepper: rotor(kernelBenchPackedN, kernelBenchPackedK, kernelBenchWarmup, 0, core.KernelGeneric, "generic")},
		{Name: "rotor-packed", Process: "rotor", Graph: packedRing, K: kernelBenchPackedK,
			Baseline: "rotor-packed-generic", Rounds: kernelBenchPackedRounds,
			NewStepper: rotor(kernelBenchPackedN, kernelBenchPackedK, kernelBenchWarmup, 0, core.KernelAuto, "ring")},
		{Name: "rotor-window-generic", Process: "rotor", Graph: windowRing, K: kernelBenchWindowK,
			Rounds: kernelBenchWindowRounds, Chunk: kernelBenchWindowChunk,
			NewStepper: rotor(kernelBenchWindowN, kernelBenchWindowK, kernelBenchWarmup, kernelBenchWindowChunk, core.KernelGeneric, "generic")},
		{Name: "rotor-window", Process: "rotor", Graph: windowRing, K: kernelBenchWindowK,
			Baseline: "rotor-window-generic", Rounds: kernelBenchWindowRounds, Chunk: kernelBenchWindowChunk,
			NewStepper: rotor(kernelBenchWindowN, kernelBenchWindowK, kernelBenchWarmup, kernelBenchWindowChunk, core.KernelAuto, "ring-sparse")},
		// The big-ring pair: the dense regime at 2^24 nodes, serial ring
		// kernel versus the parallel-within-round stepper (bit-identical by
		// construction; the differential suite proves it, this pair prices
		// it).
		{Name: "ring-2^24-serial", Process: "rotor", Graph: bigRing, K: kernelBenchBigK,
			Rounds: kernelBenchBigRounds, NewStepper: rotor(kernelBenchBigN, kernelBenchBigK, kernelBenchBigWarmup, 0, core.KernelFast, "ring")},
		{Name: "ring-2^24-parallel", Process: "rotor", Graph: bigRing, K: kernelBenchBigK,
			Baseline: "ring-2^24-serial", Rounds: kernelBenchBigRounds,
			NewStepper: rotor(kernelBenchBigN, kernelBenchBigK, kernelBenchBigWarmup, 0, core.KernelParallel, "ring-parallel")},
		{Name: "walk-agents", Process: "walk", Graph: walkRing, K: kernelBenchWalkK,
			NewStepper: walk(randwalk.ModeAgents)},
		{Name: "walk-counts", Process: "walk", Graph: walkRing, K: kernelBenchWalkK,
			Baseline: "walk-agents", NewStepper: walk(randwalk.ModeCounts)},
	}
}
