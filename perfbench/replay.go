package main

import (
	"fmt"
	"strings"
	"time"

	"rotorring/internal/core"
	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/xrand"
)

// ringBytesPerNode is the memory one ring-kernel round moves per node, from
// the kernel's array sizes: the split pass reads the count (8 B), reads and
// writes the pointer (4+4 B) and the exit counter (8+8 B) and writes the
// split (8 B); the assemble pass reads counts and splits and writes the
// next counts (24 B); the finish pass reads the next counts and updates the
// visit counter (24 B).
const ringBytesPerNode = 88

// tierStats accumulates replayed stepping on one tier.
type tierStats struct {
	rounds     int64
	steps      float64 // rounds × agents
	nodeRounds float64 // rounds × nodes
	busy       time.Duration
}

// replayStats is what replaying a traced pass layer by layer measured.
type replayStats struct {
	buildBusy       time.Duration // one build per graph and sweep
	initUs, resetUs []float64
	initBusy        time.Duration
	tiers           map[string]*tierStats // by span name: "kernel.ring", "randwalk.counts", ...
	// Job time the replay leaves unexplained, per agent step: schedule and
	// metric evaluation on scheduled cells, mission evaluation on mission
	// cells.
	scheduleNsPerStep, missionNsPerStep float64
}

// cellCost is what one replayed cell cost: construction, and stepping per
// agent step.
type cellCost struct {
	built     time.Duration
	nsPerStep float64
}

// replay re-runs the first replica of every cell of the traced sweeps
// outside the engine: engine.BuildTopo once per graph and sweep (the
// engine's cache scope), core.NewSystem or randwalk.New, stepping for the
// row's rounds on whatever tier the system selects, and System.Reset. Of
// each scheduled or mission job's time, what the replay leaves unexplained
// is that layer's evaluation cost.
func replay(tr *tracer, sweeps []tracedSweep) (*replayStats, error) {
	rs := &replayStats{tiers: make(map[string]*tierStats)}
	var schedRest, schedSteps, missionRest, missionSteps float64
	for _, sw := range sweeps {
		spec := sw.exp.Spec()
		graphs := make(map[string]*graph.Graph)
		costs := make(map[int]cellCost)
		for _, j := range sw.jobs {
			cell, _ := sw.exp.Job(j.idx)
			cost, ok := costs[cell.Index]
			if !ok {
				var err error
				if cost, err = rs.replayCell(tr, sw.id, spec, cell, j.row, graphs); err != nil {
					return nil, fmt.Errorf("replay %s cell %d: %w", sw.id, cell.Index, err)
				}
				costs[cell.Index] = cost
			}
			steps := float64(j.row.Rounds) * float64(cell.K)
			rest := float64(j.run-cost.built) - steps*cost.nsPerStep
			switch {
			case cell.Mission != "":
				missionRest, missionSteps = missionRest+rest, missionSteps+steps
			case cell.Schedule != "":
				schedRest, schedSteps = schedRest+rest, schedSteps+steps
			}
		}
	}
	rs.scheduleNsPerStep = ratio(schedRest, schedSteps)
	rs.missionNsPerStep = ratio(missionRest, missionSteps)
	return rs, nil
}

// replayCell replays one cell from the row of its first replica.
func (rs *replayStats) replayCell(tr *tracer, sweep string, spec engine.SweepSpec, cell engine.Cell, row engine.Row, graphs map[string]*graph.Graph) (cellCost, error) {
	root := tr.start("replay.cell", 0, sweep)
	defer tr.end(root)
	g, ok := graphs[cell.Spec]
	if !ok {
		// The engine's graph seed, so a seeded family builds the graph the
		// job ran on.
		seed, err := engine.GraphSeed(spec.Seed, engine.Topo(cell.Spec), cell.N)
		if err != nil {
			return cellCost{}, err
		}
		sp := tr.start("graph.build", root, sweep)
		t0 := time.Now()
		g, err = engine.BuildTopo(engine.Topo(cell.Spec), cell.N, seed)
		rs.buildBusy += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return cellCost{}, err
		}
		graphs[cell.Spec] = g
	}
	n := g.NumNodes()
	// The job seed reproduces the job's random placement and pointers.
	rng := xrand.New(row.Seed)
	var positions []int
	switch cell.Placement {
	case engine.PlaceSingle:
		positions = core.AllOnNode(0, cell.K)
	case engine.PlaceEqual:
		positions = core.EquallySpaced(n, cell.K)
	default:
		positions = core.RandomPositions(n, cell.K, rng)
	}
	steps := float64(row.Rounds) * float64(cell.K)
	if spec.Process == engine.ProcWalk {
		sp := tr.start("randwalk.init", root, sweep)
		t0 := time.Now()
		w, err := randwalk.New(g, positions, rng)
		built := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return cellCost{}, err
		}
		d := rs.step(tr, root, sweep, "randwalk."+w.Mode(), row.Rounds, cell.K, n, func() { w.Run(row.Rounds) })
		return cellCost{built: built, nsPerStep: ratio(float64(d), steps)}, nil
	}
	ptrs, err := initialPointers(cell.Pointer, g, positions, rng)
	if err != nil {
		return cellCost{}, err
	}
	sp := tr.start("core.init", root, sweep)
	t0 := time.Now()
	sys, err := core.NewSystem(g, core.WithAgentsAt(positions...), core.WithPointers(ptrs))
	built := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return cellCost{}, err
	}
	rs.initUs = append(rs.initUs, float64(built)/float64(time.Microsecond))
	rs.initBusy += built
	tier := sys.KernelName()
	d := rs.step(tr, root, sweep, "kernel."+tier, row.Rounds, cell.K, n, func() { sys.Run(row.Rounds) })
	sp = tr.start("core.reset", root, sweep)
	t0 = time.Now()
	sys.Reset()
	rs.resetUs = append(rs.resetUs, float64(time.Since(t0))/float64(time.Microsecond))
	tr.end(sp)
	if strings.HasPrefix(cell.Schedule, "delay") && (tier == "ring" || tier == "path") {
		// The held tier: the same rounds with a quarter of every node's
		// agents held, as a delay:p=0.25 round holds on average.
		held := make([]int64, n)
		rs.step(tr, root, sweep, "kernel.held", row.Rounds, cell.K, n, func() {
			for r := int64(0); r < row.Rounds; r++ {
				for v, c := range sys.AgentCountsView() {
					held[v] = c / 4
				}
				sys.StepHeld(held)
			}
		})
	}
	return cellCost{built: built, nsPerStep: ratio(float64(d), steps)}, nil
}

// step times one replayed stepping run and books it to its tier.
func (rs *replayStats) step(tr *tracer, parent spanID, sweep, tier string, rounds int64, k, n int, run func()) time.Duration {
	sp := tr.start(tier, parent, sweep)
	t0 := time.Now()
	run()
	d := time.Since(t0)
	tr.end(sp)
	ts := rs.tiers[tier]
	if ts == nil {
		ts = &tierStats{}
		rs.tiers[tier] = ts
	}
	ts.rounds += rounds
	ts.steps += float64(rounds) * float64(k)
	ts.nodeRounds += float64(rounds) * float64(n)
	ts.busy += d
	return d
}

// initialPointers builds a cell's starting pointers as the engine does.
func initialPointers(p engine.Pointer, g *graph.Graph, positions []int, rng *xrand.Rand) ([]int, error) {
	switch p {
	case engine.PtrNegative:
		return core.PointersNegative(g, positions)
	case engine.PtrToward:
		return core.PointersTowardNode(g, 0)
	case engine.PtrRandom:
		return core.PointersRandom(g, rng), nil
	default:
		return core.PointersUniform(g, 0), nil
	}
}

// report books the graph, core, kernel, randwalk and evaluation metrics.
func (rs *replayStats) report(m map[string]float64) {
	m["graph.build_busy_s"] = rs.buildBusy.Seconds()
	m["core.init_us_p50"] = quantile(rs.initUs, .5)
	m["core.reset_us_p50"] = quantile(rs.resetUs, .5)
	m["core.init_busy_s"] = rs.initBusy.Seconds()
	for _, tier := range []string{"kernel.ring", "kernel.path", "kernel.held", "kernel.generic", "randwalk.agents", "randwalk.counts"} {
		ts := rs.tiers[tier]
		if ts == nil {
			ts = &tierStats{}
		}
		m[tier+".rounds"] = float64(ts.rounds)
		m[tier+".steps_per_s"] = ratio(ts.steps, ts.busy.Seconds())
	}
	if ring := rs.tiers["kernel.ring"]; ring != nil {
		m["kernel.ring.computed_gb_per_s"] = ratio(ring.nodeRounds*ringBytesPerNode/1e9, ring.busy.Seconds())
	}
	m["engine.schedule_ns_per_step"] = rs.scheduleNsPerStep
	m["engine.mission_ns_per_step"] = rs.missionNsPerStep
}

// forcedTiers steps paper-grid's largest dense ring cell under each forced
// kernel mode, from the same random start and for the same time each: the
// numbers the parallel tier's keep-or-delete decision rests on.
func forcedTiers(cfg config, m map[string]float64) error {
	n, k := largestDenseCell(cfg.tiny)
	g, err := engine.BuildTopo("ring", n, 0)
	if err != nil {
		return err
	}
	budget := 300 * time.Millisecond
	if cfg.tiny {
		budget = 20 * time.Millisecond
	}
	for _, tier := range []struct {
		mode           core.KernelMode
		kernel, metric string
	}{
		{core.KernelGeneric, "generic", "kernel.forced_generic.steps_per_s"},
		{core.KernelFast, "ring", "kernel.forced_fast.steps_per_s"},
		{core.KernelParallel, "ring-parallel", "kernel.parallel.steps_per_s"},
	} {
		rng := xrand.New(cfg.seed)
		sys, err := core.NewSystem(g, core.WithAgentsAt(core.RandomPositions(n, k, rng)...),
			core.WithPointers(core.PointersRandom(g, rng)), core.WithKernelMode(tier.mode))
		if err != nil {
			return err
		}
		if got := sys.KernelName(); got != tier.kernel {
			return fmt.Errorf("forced %s tier runs the %s kernel", tier.kernel, got)
		}
		sys.Run(64) // spread the start into its steady-state occupancy
		var rounds int64
		t0 := time.Now()
		for time.Since(t0) < budget {
			sys.Run(64)
			rounds += 64
		}
		m[tier.metric] = float64(rounds) * float64(k) / time.Since(t0).Seconds()
	}
	return nil
}
