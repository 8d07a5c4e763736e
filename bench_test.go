// Benchmarks reproducing every table and figure of the paper, one bench
// target per experiment row (the mapping lives in DESIGN.md §3). Each
// benchmark runs one fixed representative configuration per iteration and
// reports the measured quantity (rounds, etc.) via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the headline numbers.
package rotorring_test

import (
	"context"
	"testing"

	"rotorring"
	"rotorring/internal/continuum"
	"rotorring/internal/core"
	"rotorring/internal/deploy"
	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/remote"
	"rotorring/internal/ringdom"
	"rotorring/internal/stats"
	"rotorring/internal/tokengame"
	"rotorring/internal/xrand"
)

// BenchmarkTable1RotorWorst — E1 (Theorems 1, 2): k agents on one node,
// pointers toward the start: cover time Θ(n²/log k).
func BenchmarkTable1RotorWorst(b *testing.B) {
	const n, k = 512, 8
	var cover int64
	for i := 0; i < b.N; i++ {
		sim, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(k),
			rotorring.Place(rotorring.PlaceSingleNode),
			rotorring.Pointers(rotorring.PointerTowardStart))
		if err != nil {
			b.Fatal(err)
		}
		cover, err = sim.CoverTime(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cover), "cover-rounds")
	b.ReportMetric(float64(cover)/rotorring.PredictRotorWorstCover(n, k), "ratio-to-theta")
}

// BenchmarkTable1RotorBest — E2 (Theorems 3, 4): equally spaced agents vs
// adversarial pointers: cover time Θ(n²/k²).
func BenchmarkTable1RotorBest(b *testing.B) {
	const n, k = 512, 8
	var cover int64
	for i := 0; i < b.N; i++ {
		sim, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(k),
			rotorring.Place(rotorring.PlaceEqualSpacing),
			rotorring.Pointers(rotorring.PointerNegative))
		if err != nil {
			b.Fatal(err)
		}
		cover, err = sim.CoverTime(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cover), "cover-rounds")
	b.ReportMetric(float64(cover)/rotorring.PredictRotorBestCover(n, k), "ratio-to-theta")
}

// BenchmarkTable1WalkWorst — E3 ([4]): k walks from one node,
// E[cover] = Θ(n²/log k).
func BenchmarkTable1WalkWorst(b *testing.B) {
	const n, k, trials = 512, 8, 4
	var mean float64
	for i := 0; i < b.N; i++ {
		times, err := randwalk.CoverTimes(graph.Ring(n), core.AllOnNode(0, k),
			trials, uint64(i)+1, 64*int64(n)*int64(n))
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.MeanInt64(times)
	}
	b.ReportMetric(mean, "mean-cover-rounds")
	b.ReportMetric(mean/rotorring.PredictWalkWorstCover(n, k), "ratio-to-theta")
}

// BenchmarkTable1WalkBest — E4 (Theorem 5): equally spaced walks,
// E[cover] = Θ((n/k)²·log²k).
func BenchmarkTable1WalkBest(b *testing.B) {
	const n, k, trials = 512, 8, 4
	var mean float64
	for i := 0; i < b.N; i++ {
		times, err := randwalk.CoverTimes(graph.Ring(n), core.EquallySpaced(n, k),
			trials, uint64(i)+1, 64*int64(n)*int64(n))
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.MeanInt64(times)
	}
	b.ReportMetric(mean, "mean-cover-rounds")
	b.ReportMetric(mean/rotorring.PredictWalkBestCover(n, k), "ratio-to-theta")
}

// BenchmarkTable1ReturnTime — E5 (Theorem 6): limit-cycle return time
// Θ(n/k).
func BenchmarkTable1ReturnTime(b *testing.B) {
	const n, k = 512, 8
	var ret int64
	for i := 0; i < b.N; i++ {
		sim, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(k),
			rotorring.Place(rotorring.PlaceEqualSpacing),
			rotorring.Pointers(rotorring.PointerNegative))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sim.(rotorring.ReturnTimeMeasurer).ReturnTime(0)
		if err != nil {
			b.Fatal(err)
		}
		ret = rs.ReturnTime
	}
	b.ReportMetric(float64(ret), "return-rounds")
	b.ReportMetric(float64(ret)/rotorring.PredictReturnTime(n, k), "ratio-to-theta")
}

// BenchmarkSpeedupSummary — E6 (§1.1): best-case speed-up over one agent,
// which the paper puts at Θ(k²).
func BenchmarkSpeedupSummary(b *testing.B) {
	const n, k = 512, 8
	var speedup float64
	for i := 0; i < b.N; i++ {
		base, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(1), rotorring.Pointers(rotorring.PointerTowardStart))
		if err != nil {
			b.Fatal(err)
		}
		c1, err := base.CoverTime(0)
		if err != nil {
			b.Fatal(err)
		}
		multi, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(k),
			rotorring.Place(rotorring.PlaceEqualSpacing),
			rotorring.Pointers(rotorring.PointerNegative))
		if err != nil {
			b.Fatal(err)
		}
		ck, err := multi.CoverTime(0)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(c1) / float64(ck)
	}
	b.ReportMetric(speedup, "best-case-speedup")
	b.ReportMetric(speedup/float64(k*k), "ratio-to-ksquared")
}

// BenchmarkFig1Borders — F1: classify lazy-domain borders on a stabilized
// ring.
func BenchmarkFig1Borders(b *testing.B) {
	const n, k = 96, 3
	g := graph.Ring(n)
	starts := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, starts)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(starts...),
		core.WithPointers(ptr))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ringdom.NewTracker(sys)
	if err != nil {
		b.Fatal(err)
	}
	tr.Run(int64(10 * n))
	b.ResetTimer()
	settled := 0
	for i := 0; i < b.N; i++ {
		tr.Run(7)
		borders, err := tr.Borders()
		if err != nil {
			b.Fatal(err)
		}
		settled = 0
		for _, bd := range borders {
			if bd.Kind == ringdom.BorderVertex || bd.Kind == ringdom.BorderEdge {
				settled++
			}
		}
	}
	b.ReportMetric(float64(settled), "settled-borders")
}

// BenchmarkFig2DelayedDeployment — F2: the Theorem 1 Phase A/B deployment.
func BenchmarkFig2DelayedDeployment(b *testing.B) {
	var res *deploy.Theorem1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = deploy.Theorem1Deployment(160, 4, deploy.Theorem1Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CoverRounds), "deployment-rounds")
	b.ReportMetric(float64(res.FullyActiveRounds), "fully-active-rounds")
}

// BenchmarkLemma12Domains — X1: maximum adjacent lazy-domain difference
// after stabilization.
func BenchmarkLemma12Domains(b *testing.B) {
	const n, k = 128, 4
	g := graph.Ring(n)
	ptr, err := core.PointersTowardNode(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	maxDiff := 0
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(g,
			core.WithAgentsAt(core.AllOnNode(0, k)...),
			core.WithPointers(ptr))
		if err != nil {
			b.Fatal(err)
		}
		tr, err := ringdom.NewTracker(sys)
		if err != nil {
			b.Fatal(err)
		}
		tr.Run(int64(n) * int64(n))
		lp, err := tr.LazyDomains()
		if err != nil {
			b.Fatal(err)
		}
		maxDiff = lp.MaxAdjacentDiff()
	}
	b.ReportMetric(float64(maxDiff), "max-adjacent-diff")
}

// BenchmarkLemma13Profile — X2: computing the limit profile.
func BenchmarkLemma13Profile(b *testing.B) {
	var p *continuum.Profile
	for i := 0; i < b.N; i++ {
		var err error
		p, err = continuum.LimitProfile(64)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.A[1]*stats.Harmonic(64), "a1-times-Hk")
}

// BenchmarkContinuumODE — X3: integrating the §2.3 ODE.
func BenchmarkContinuumODE(b *testing.B) {
	p, err := continuum.LimitProfile(8)
	if err != nil {
		b.Fatal(err)
	}
	sizes := make([]float64, 8)
	for i := range sizes {
		sizes[i] = p.A[i+1] * 1000
	}
	var total float64
	for i := 0; i < b.N; i++ {
		m, err := continuum.NewModel(sizes, continuum.BoundaryOneFrontier)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Advance(1e6); err != nil {
			b.Fatal(err)
		}
		total = m.Total()
	}
	b.ReportMetric(total, "final-mass")
}

// BenchmarkTokenGame — X4: adversarial play against the Lemma 8 invariant.
func BenchmarkTokenGame(b *testing.B) {
	var min int
	for i := 0; i < b.N; i++ {
		g, err := tokengame.New(16, 160)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tokengame.Play(g, tokengame.CascadeAttacker{}, 100_000); err != nil {
			b.Fatal(err)
		}
		min = g.Min()
	}
	b.ReportMetric(float64(min), "min-stack")
}

// BenchmarkRemoteVertices — X5: the Lemma 15 census.
func BenchmarkRemoteVertices(b *testing.B) {
	const n, k = 4000, 40
	p, err := remote.NewPlacement(n, core.AllOnNode(0, k))
	if err != nil {
		b.Fatal(err)
	}
	count := 0
	for i := 0; i < b.N; i++ {
		count = p.CountRemote()
	}
	b.ReportMetric(float64(count)/float64(n), "remote-fraction")
}

// BenchmarkLockIn — X6: single-agent lock-in to the Eulerian circulation.
func BenchmarkLockIn(b *testing.B) {
	g := graph.Grid2D(8, 8)
	rng := xrand.New(1)
	var mu int64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(g,
			core.WithAgentsAt(rng.Intn(g.NumNodes())),
			core.WithPointers(core.PointersRandom(g, rng)))
		if err != nil {
			b.Fatal(err)
		}
		lc, err := core.FindLimitCycle(sys, 1<<22, true)
		if err != nil {
			b.Fatal(err)
		}
		mu = lc.StabilizationRound
	}
	b.ReportMetric(float64(mu), "lock-in-round")
}

// BenchmarkMonotonicity — X7: the delayed-vs-undelayed dominance check.
func BenchmarkMonotonicity(b *testing.B) {
	const n, k = 96, 5
	g := graph.Ring(n)
	rng := xrand.New(3)
	starts := core.RandomPositions(n, k, rng)
	ptr := core.PointersRandom(g, rng)
	for i := 0; i < b.N; i++ {
		u, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
		if err != nil {
			b.Fatal(err)
		}
		held := make([]int64, n)
		for r := 0; r < 500; r++ {
			u.Step()
			for v := range held {
				held[v] = 0
			}
			for _, v := range d.Occupied() {
				if rng.Bool() {
					held[v] = 1
				}
			}
			d.StepHeld(held)
			for v := 0; v < n; v++ {
				if d.Visits(v) > u.Visits(v) {
					b.Fatal("Lemma 1 dominance violated")
				}
			}
		}
	}
}

// BenchmarkGeneralGraphSpeedup — X8 (extension): multi-agent cover-time
// speed-up on a general graph.
func BenchmarkGeneralGraphSpeedup(b *testing.B) {
	g := graph.Torus2D(12, 12)
	rng := xrand.New(5)
	var speedup float64
	for i := 0; i < b.N; i++ {
		cover := func(k int) int64 {
			sys, err := core.NewSystem(g,
				core.WithAgentsAt(core.RandomPositions(g.NumNodes(), k, rng)...),
				core.WithPointers(core.PointersRandom(g, rng)))
			if err != nil {
				b.Fatal(err)
			}
			c, err := sys.RunUntilCovered(1 << 24)
			if err != nil {
				b.Fatal(err)
			}
			return c
		}
		speedup = float64(cover(1)) / float64(cover(8))
	}
	b.ReportMetric(speedup/8, "speedup-per-agent")
}

// BenchmarkEdgeRemoval — X9 (extension): re-stabilization after cutting a
// stabilized ring into a path.
func BenchmarkEdgeRemoval(b *testing.B) {
	const n = 64
	rng := xrand.New(9)
	var mu int64
	for i := 0; i < b.N; i++ {
		ring := graph.Ring(n)
		sys, err := core.NewSystem(ring,
			core.WithAgentsAt(core.RandomPositions(n, 4, rng)...),
			core.WithPointers(core.PointersRandom(ring, rng)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.FindLimitCycle(sys, 1<<22, false); err != nil {
			b.Fatal(err)
		}
		path := graph.Path(n)
		ptr := make([]int, n)
		counts := make([]int64, n)
		for v := 0; v < n; v++ {
			counts[v] = sys.AgentsAt(v)
			if v > 0 && v < n-1 && sys.Pointer(v) == graph.RingCW {
				ptr[v] = 1
			}
		}
		cut, err := core.NewSystem(path, core.WithAgentCounts(counts), core.WithPointers(ptr))
		if err != nil {
			b.Fatal(err)
		}
		lc, err := core.FindLimitCycle(cut, 1<<24, true)
		if err != nil {
			b.Fatal(err)
		}
		mu = lc.StabilizationRound
	}
	b.ReportMetric(float64(mu), "restabilization-rounds")
}

// BenchmarkKernel — K1: per-kernel step throughput on the fixed tier
// workloads of internal/engine.KernelBenchCases — the rotor pair (generic
// engine vs ring kernel) on Ring(2^16) and the walk pair (per-agent vs
// counts) at k = 10·n. `make bench-kernels` runs exactly these; the output
// is benchstat-comparable against `make bench-baseline`, which prints the
// committed BENCH_engine.json in the same format.
func BenchmarkKernel(b *testing.B) {
	for _, kc := range engine.KernelBenchCases() {
		b.Run(kc.Name, func(b *testing.B) {
			step, err := kc.NewStepper()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.N)*float64(kc.K)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}

// BenchmarkEngineStepRing measures raw engine throughput on the ring.
func BenchmarkEngineStepRing(b *testing.B) {
	const n, k = 4096, 64
	g := graph.Ring(n)
	sys, err := core.NewSystem(g, core.WithAgentsAt(core.EquallySpaced(n, k)...))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkEngineStepComplete measures engine throughput at high degree.
func BenchmarkEngineStepComplete(b *testing.B) {
	g := graph.Complete(256)
	sys, err := core.NewSystem(g, core.WithAgentsAt(core.EquallySpaced(256, 32)...))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkWalkStep measures random-walk throughput.
func BenchmarkWalkStep(b *testing.B) {
	g := graph.Ring(4096)
	w, err := randwalk.New(g, core.EquallySpaced(4096, 64), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// BenchmarkProcessAPI — observer overhead guard for the unified Process
// API: stepping through the interface and the context-aware runner must
// stay within noise of raw System stepping (the kernel throughputs
// committed in BENCH_engine.json), because the unobserved path runs the
// same hot loop in large chunks — cancellation and sampling cost a branch
// per chunk, never per round. Compare the sub-benchmarks' steps/sec with
// `make bench-kernels` / `make bench-baseline`.
func BenchmarkProcessAPI(b *testing.B) {
	const n, k = 1 << 16, 1 << 15 // the kernel-bench acceptance scale
	build := func(b *testing.B) rotorring.Process {
		p, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
			rotorring.Agents(k), rotorring.Place(rotorring.PlaceEqualSpacing))
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(256); err != nil { // steady-state warmup
			b.Fatal(err)
		}
		return p
	}
	stepsPerSec := func(b *testing.B) {
		b.ReportMetric(float64(b.N)*float64(k)/b.Elapsed().Seconds(), "steps/sec")
	}

	b.Run("raw-step", func(b *testing.B) {
		p := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Step()
		}
		stepsPerSec(b)
	})
	b.Run("run-context", func(b *testing.B) {
		p := build(b)
		ctx := context.Background()
		b.ResetTimer()
		if err := rotorring.RunContext(ctx, p, int64(b.N)); err != nil {
			b.Fatal(err)
		}
		stepsPerSec(b)
	})
	b.Run("run-context-observed", func(b *testing.B) {
		p := build(b)
		cov, err := rotorring.CoverageProbe(4096)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		if err := rotorring.RunContext(ctx, p, int64(b.N), cov); err != nil {
			b.Fatal(err)
		}
		stepsPerSec(b)
	})
}
