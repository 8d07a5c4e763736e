package engine

import (
	"sync"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
	"rotorring/probe"
)

// graphKey identifies one constructed graph instance in the sweep's shared
// cache: the resolved self-sized spec plus the graph seed (always 0 for
// unseeded families, so spelling variants of one instance share an entry).
type graphKey struct {
	spec string
	seed uint64
}

// graphEntry is one cache slot. The sync.Once gives the cache its
// build-exactly-once guarantee: concurrent workers requesting the same key
// block on the single build instead of duplicating it.
type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

// graphCache is the sweep-scoped graph store shared by all workers of one
// Run. Each (topology, size, graph-seed) instance is built exactly once
// and then shared read-only: graph.Graph is immutable after construction
// (adjacency and arc-id tables are frozen before the graph escapes its
// builder), so lock-free concurrent reads from every worker are safe.
// Build errors are cached alongside, so a failing cell fails every
// replica without rebuilding.
type graphCache struct {
	mu sync.Mutex
	m  map[graphKey]*graphEntry
}

func newGraphCache() *graphCache {
	return &graphCache{m: make(map[graphKey]*graphEntry)}
}

// get returns the cached graph for key, building it on first use.
func (c *graphCache) get(key graphKey, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &graphEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.g, e.err = build() })
	return e.g, e.err
}

// worker holds the per-goroutine reusable state: a handle on the sweep's
// shared graph cache and the prototype process instance of the last
// deterministic cell it ran, which subsequent replicas of the same cell
// reuse via Reset (plus Reseed for randomized processes) instead of
// reallocating per trial — or run on a clone when the measurement must not
// disturb the prototype. Beyond the cache's build synchronization, workers
// never share mutable state, so the hot step loops run without locks, and
// the simulators' internal scratch buffers keep them allocation-free
// across rounds.
type worker struct {
	graphs *graphCache

	protoCell int    // cell index the cached prototype was built for
	protoName string // process name the cached prototype runs
	proto     Proc
}

func newWorker(graphs *graphCache) *worker {
	return &worker{graphs: graphs, protoCell: -1}
}

// graph returns the shared cached graph for a cell, constructing it on
// first use anywhere in the sweep. Builders are deterministic given
// (params, n, seed) — seeded families derive their seed from the sweep's
// base seed and the resolved spec, never from worker identity — so caching
// cannot affect results, only skip redundant construction.
func (w *worker) graph(spec *SweepSpec, c Cell) (*graph.Graph, error) {
	var seed uint64
	if c.inst.def.Seeded {
		seed = graphSeedOf(spec.Seed, c.Spec)
	}
	return w.graphs.get(graphKey{spec: c.Spec, seed: seed}, func() (*graph.Graph, error) {
		return buildInstance(c.inst, c.N, seed)
	})
}

// CoverBudget is the library's deterministic automatic round budget for
// cover-time runs: comfortably above the worst case Theta(n^2) of any ring
// initialization (and of Theta(D*|E|) lock-in at the scales this library
// targets). AutoBudget layers the per-process / per-metric headroom
// factors on top; the root package's simulations and the sweep engine
// share those two formulas and nothing else.
func CoverBudget(g *graph.Graph) int64 {
	b := 16 * int64(g.NumNodes()) * int64(g.NumEdges())
	if min := int64(1 << 20); b < min {
		b = min
	}
	return b
}

// budget returns the round budget for one job: the explicit MaxRounds
// (taken literally, schedules included — the caller asked for that exact
// cap), or the registry's automatic rule extended for perturbed cells:
// auto·Factor + Offset from the schedule's plan, so a faulted run keeps a
// full post-event budget instead of hitting the static cap and reporting
// non-coverage (see DESIGN.md, round budgets).
func budget(spec *SweepSpec, c Cell, g *graph.Graph) int64 {
	if spec.MaxRounds > 0 {
		return spec.MaxRounds
	}
	b := AutoBudget(g, spec.Process, spec.Metric)
	if plan := c.sched.plan; plan != nil && !c.sched.none() {
		b = b*plan.BudgetFactor + plan.BudgetOffset
	}
	if plan := c.mis.plan; plan != nil && !c.mis.none() {
		// Predicate missions may run well past cover time (the return
		// mission waits for a configuration recurrence); service missions
		// need at least their horizon. This is the hard cap that turns a
		// non-terminating mission into a mission_timeout row.
		b *= plan.BudgetFactor
		if plan.Horizon > 0 && b < plan.Horizon {
			b = plan.Horizon
		}
	}
	return b
}

// baseRow fills the identity columns of one job's row.
func baseRow(spec *SweepSpec, def *ProcessDef, c Cell, replica int, seed uint64) Row {
	r := Row{
		Cell:      c,
		Placement: c.Placement.String(),
		Process:   spec.Process,
		Metric:    spec.Metric,
		Replica:   replica,
		Seed:      seed,
	}
	if def.UsesPointers {
		r.Pointer = c.Pointer.String()
	}
	return r
}

// runJob executes one replica of one cell: resolve the placement, build
// (or reuse) the named process instance, and run the named metric on it.
func (w *worker) runJob(spec *SweepSpec, c Cell, replica int) Row {
	seed := jobSeed(spec.Seed, c, replica)
	// The spec was validated by withDefaults before any worker started.
	def, _ := Processes.Lookup(spec.Process)
	met, _ := Metrics.Lookup(spec.Metric)
	row := baseRow(spec, def, c, replica, seed)
	g, err := w.graph(spec, c)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	// Graph metadata, read off the cached graph for free: with them plus
	// the resolved spec, cross-topology rows are self-describing.
	row.Edges = g.NumEdges()
	row.MaxDegree = g.MaxDegree()

	// A cell is deterministic when no part of its configuration depends on
	// the replica seed; its prototype instance can then be reused across
	// the replicas this worker receives.
	deterministic := c.Placement != PlaceRandom && c.Pointer != PtrRandom
	rng := xrand.New(seed)

	positions, err := c.Placement.Positions(g, c.K, rng)
	if err != nil {
		row.Err = err.Error()
		return row
	}

	env := &JobEnv{
		Graph:     g,
		Cell:      c,
		Positions: positions,
		Seed:      seed,
		RNG:       rng,
		Kernel:    spec.Kernel,
		Preserve:  deterministic && spec.Replicas > 1,
	}
	if len(spec.Probes) > 0 {
		env.Probes, err = buildProbes(spec.Probes, g.NumNodes())
		if err != nil {
			row.Err = err.Error()
			return row
		}
	}

	var p Proc
	if deterministic && w.protoCell == c.Index && w.protoName == spec.Process && w.proto != nil {
		p = w.proto
		// Randomized processes rewind their generator to the replica's
		// deterministic state before the reuse; deterministic ones have
		// nothing to rewind. A cached schedule runner also rewinds its
		// schedule stream here (its Reseeder re-derives from the job seed)
		// and its plan cursor in Reset.
		if r, ok := p.(Reseeder); ok {
			r.Reseed(seed)
		}
		p.Reset()
	} else {
		p, err = def.New(env)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		// Perturbed cells run behind the schedule runner, which applies the
		// cell's compiled plan while stepping; a schedule the process lacks
		// the capabilities for fails as this job's error row.
		if !c.sched.none() {
			sp, err := newScheduledProc(p, spec.Process, c.sched, env)
			if err != nil {
				row.Err = err.Error()
				return row
			}
			p = sp
		}
		// Cache only instances whose reuse is equivalent to a fresh build:
		// a randomized process must implement Reseeder, or the next replica
		// would continue this replica's random stream — whose content
		// depends on which worker ran it, breaking the engine's
		// worker-count determinism contract. (The schedule runner always
		// reseeds, forwarding to a randomized inner process.)
		_, reseeds := p.(Reseeder)
		if deterministic && (!def.Randomized || reseeds) {
			w.protoCell, w.protoName, w.proto = c.Index, spec.Process, p
		} else {
			w.protoCell, w.protoName, w.proto = -1, "", nil
		}
	}

	if !c.mis.none() {
		// Mission cells replace the metric measurement with the mission
		// runner: run until the predicate fires or the budget caps it.
		measureMission(p, c.mis, spec.Process, env, budget(spec, c, g), &row)
		return row
	}
	met.Measure(p, env, budget(spec, c, g), &row)
	return row
}

// buildProbes instantiates the spec's probes for one job.
func buildProbes(specs []ProbeSpec, nodes int) ([]probe.Probe, error) {
	probes := make([]probe.Probe, 0, len(specs))
	for _, ps := range specs {
		p, err := probe.New(ps.Name, probe.Env{Stride: ps.Stride, Nodes: nodes})
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
	}
	return probes, nil
}
