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
// Ring(2^16), the serial-versus-parallel ring pair at 2^24 nodes, and one
// walk pair (per-agent versus counts-based) at k = 10·n. Keeping the
// workload in one place means `make bench-kernels` and the committed JSON
// always measure the same thing.

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
	// Rounds overrides the measured round count for heavyweight cases
	// (0 = the shared default in measureKernels); their NewStepper also
	// runs a proportionally shorter warmup.
	Rounds int
	// NewStepper builds a fresh simulator, runs a short warmup so the
	// measurement starts in the steady state (spread-out occupancy, warm
	// caches), and returns a function advancing one synchronous round.
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
	rotor := func(mode core.KernelMode) func() (func(), error) {
		return func() (func(), error) {
			g := graph.Ring(kernelBenchRotorN)
			// Random placement and pointers give irregular occupancy — the
			// steady-state shape of dense simulations — rather than the
			// lock-step march of an equally-spaced all-clockwise start.
			rng := xrand.New(1)
			sys, err := core.NewSystem(g,
				core.WithAgentsAt(core.RandomPositions(kernelBenchRotorN, kernelBenchRotorK, rng)...),
				core.WithPointers(core.PointersRandom(g, rng)),
				core.WithKernelMode(mode))
			if err != nil {
				return nil, err
			}
			if mode == core.KernelFast && sys.KernelName() != "ring" {
				return nil, fmt.Errorf("engine: ring kernel not selected (%s)", sys.KernelName())
			}
			sys.Run(kernelBenchWarmup)
			return sys.Step, nil
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
	// The big-ring pair: the same dense regime at 2^24 nodes, serial ring
	// kernel versus the parallel-within-round stepper (bit-identical by
	// construction; the differential suite proves it, this pair prices it).
	big := func(mode core.KernelMode, want string) func() (func(), error) {
		return func() (func(), error) {
			g := graph.Ring(kernelBenchBigN)
			rng := xrand.New(1)
			sys, err := core.NewSystem(g,
				core.WithAgentsAt(core.RandomPositions(kernelBenchBigN, kernelBenchBigK, rng)...),
				core.WithPointers(core.PointersRandom(g, rng)),
				core.WithKernelMode(mode))
			if err != nil {
				return nil, err
			}
			if sys.KernelName() != want {
				return nil, fmt.Errorf("engine: kernel %q selected, want %q", sys.KernelName(), want)
			}
			sys.Run(kernelBenchBigWarmup)
			return sys.Step, nil
		}
	}
	// The schedule-path case measures the perturbation subsystem's stepping
	// cost: the same dense rotor workload behind the schedule runner with a
	// permanent delay regime, so every round pays the counter-based hold
	// draws plus a fused held-kernel round — the steady-state cost of the
	// scheduled path. Stated against rotor-generic, the gap is the price of
	// the scenario layer, not of the wrapper (whose pass-through rounds
	// delegate straight to the inner hot loop).
	scheduled := func() (func(), error) {
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
	// The mission-path case measures the mission runner's stepping cost: the
	// same dense rotor workload with a patrol mission state attached, so
	// every round pays the ring kernel plus one O(n) read of the flow view
	// and the per-arc staleness bookkeeping. The horizon is set far beyond
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
	walkRing := fmt.Sprintf("ring(%d)", kernelBenchWalkN)
	bigRing := fmt.Sprintf("ring(%d)", kernelBenchBigN)
	return []KernelBenchCase{
		{Name: "rotor-generic", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			NewStepper: rotor(core.KernelGeneric)},
		{Name: "rotor-ring", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: rotor(core.KernelFast)},
		{Name: "rotor-sched-delay", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: scheduled},
		{Name: "rotor-mission-patrol", Process: "rotor", Graph: ringName, K: kernelBenchRotorK,
			Baseline: "rotor-generic", NewStepper: mission},
		{Name: "ring-2^24-serial", Process: "rotor", Graph: bigRing, K: kernelBenchBigK,
			Rounds: kernelBenchBigRounds, NewStepper: big(core.KernelFast, "ring")},
		{Name: "ring-2^24-parallel", Process: "rotor", Graph: bigRing, K: kernelBenchBigK,
			Baseline: "ring-2^24-serial", Rounds: kernelBenchBigRounds,
			NewStepper: big(core.KernelParallel, "ring-parallel")},
		{Name: "walk-agents", Process: "walk", Graph: walkRing, K: kernelBenchWalkK,
			NewStepper: walk(randwalk.ModeAgents)},
		{Name: "walk-counts", Process: "walk", Graph: walkRing, K: kernelBenchWalkK,
			Baseline: "walk-agents", NewStepper: walk(randwalk.ModeCounts)},
	}
}
