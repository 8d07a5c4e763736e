package engine

import (
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/ringdom"
	"rotorring/probe"
)

// This file registers the paper's two processes (rotor, walk) and two
// metrics (cover, return) with the registry. They are ordinary registry
// entries: a third process or metric registers the same way, from any
// package, without touching the engine.

func init() {
	RegisterProcess(&ProcessDef{
		Name:           ProcRotor,
		UsesPointers:   true,
		BudgetHeadroom: 1,
		New:            newRotorProc,
	})
	RegisterProcess(&ProcessDef{
		Name:           ProcWalk,
		Randomized:     true,
		BudgetHeadroom: 4,
		New:            newWalkProc,
	})
	RegisterMetric(&MetricDef{
		Name:           MetricCover,
		BudgetHeadroom: 1,
		Measure:        measureCover,
	})
	RegisterMetric(&MetricDef{
		Name:           MetricReturn,
		BudgetHeadroom: 4,
		Measure:        measureReturn,
	})
	RegisterMetric(&MetricDef{
		Name:           MetricRestab,
		BudgetHeadroom: 4,
		Measure:        measureRestab,
	})
	RegisterMetric(&MetricDef{
		Name:           MetricCoverAfterFault,
		BudgetHeadroom: 4,
		Measure:        measureCoverAfterFault,
	})
}

// rotorProc adapts core.System to the registry's Proc surface.
type rotorProc struct {
	sys *core.System
}

func newRotorProc(env *JobEnv) (Proc, error) {
	pointers, err := env.Cell.Pointer.Pointers(env.Graph, env.Positions, env.RNG)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(env.Graph,
		core.WithAgentsAt(env.Positions...),
		core.WithPointers(pointers),
		core.WithKernelMode(env.Kernel.CoreMode()))
	if err != nil {
		return nil, err
	}
	return &rotorProc{sys: sys}, nil
}

func (p *rotorProc) Step()              { p.sys.Step() }
func (p *rotorProc) Run(rounds int64)   { p.sys.Run(rounds) }
func (p *rotorProc) Round() int64       { return p.sys.Round() }
func (p *rotorProc) Covered() int       { return p.sys.Covered() }
func (p *rotorProc) Reset()             { p.sys.Reset() }
func (p *rotorProc) Positions() []int   { return p.sys.Positions() }
func (p *rotorProc) Visits(v int) int64 { return p.sys.Visits(v) }
func (p *rotorProc) NumAgents() int64   { return p.sys.NumAgents() }
func (p *rotorProc) Pointers() []int    { return p.sys.Pointers() }
func (p *rotorProc) ResetCoverage()     { p.sys.ResetCoverage() }
func (p *rotorProc) CloneProc() Proc    { return &rotorProc{sys: p.sys.Clone()} }
func (p *rotorProc) ConfigHash() uint64 { return p.sys.ConfigHash() }

func (p *rotorProc) ForEachFlow(fn func(v, port int, agents int64)) {
	p.sys.ForEachFlow(fn)
}

// Schedule capabilities (see process.go): the rotor supports the full
// perturbation surface.
func (p *rotorProc) StepHeld(held []int64)                   { p.sys.StepHeld(held) }
func (p *rotorProc) AgentCountsView() []int64                { return p.sys.AgentCountsView() }
func (p *rotorProc) Rewire(g *graph.Graph, ptrs []int) error { return p.sys.Rewire(g, ptrs) }
func (p *rotorProc) SetPointers(ptrs []int) error            { return p.sys.SetPointers(ptrs) }
func (p *rotorProc) AddAgents(positions ...int) error        { return p.sys.AddAgents(positions...) }
func (p *rotorProc) RemoveAgents(positions ...int) error     { return p.sys.RemoveAgents(positions...) }

func (p *rotorProc) RunUntilCovered(maxRounds int64) (int64, error) {
	return p.sys.RunUntilCovered(maxRounds)
}

// MeasureRestab implements RestabMeasurer: μ of the current configuration,
// the number of rounds until the system locks into its limit cycle —
// measured after a perturbation, this is the re-stabilization time of
// Bampas et al. (X9).
func (p *rotorProc) MeasureRestab(budget int64) (RestabOutcome, error) {
	lc, err := core.FindLimitCycle(p.sys, budget, true)
	if err != nil {
		return RestabOutcome{}, err
	}
	return RestabOutcome{Restab: lc.StabilizationRound, Period: lc.Period}, nil
}

// NumDomains implements probe.DomainCounter for the domain-count probe.
func (p *rotorProc) NumDomains() (int, error) {
	part, err := ringdom.Domains(p.sys)
	if err != nil {
		return 0, err
	}
	return len(part.Domains), nil
}

// MeasureReturn implements ReturnMeasurer: locate the limit cycle and
// measure the exact return time over one period (Theorem 6). With preserve
// set the measurement runs on a clone so the worker's cached prototype
// stays reusable for the next replica.
func (p *rotorProc) MeasureReturn(budget int64, preserve bool) (ReturnOutcome, error) {
	sys := p.sys
	if preserve {
		sys = sys.Clone()
	}
	rs, err := core.MeasureReturnTime(sys, budget)
	if err != nil {
		return ReturnOutcome{Rounds: sys.Round()}, err
	}
	return ReturnOutcome{
		Value:     float64(rs.ReturnTime),
		Period:    rs.Period,
		MinVisits: rs.MinNodeVisits,
		MaxVisits: rs.MaxNodeVisits,
		Rounds:    sys.Round(),
	}, nil
}

// walkProc adapts randwalk.Walk to the registry's Proc surface.
type walkProc struct {
	w *randwalk.Walk
	n int
	k int
}

func newWalkProc(env *JobEnv) (Proc, error) {
	w, err := randwalk.New(env.Graph, env.Positions, env.RNG,
		randwalk.WithMode(env.Kernel.WalkMode()))
	if err != nil {
		return nil, err
	}
	return &walkProc{w: w, n: env.Graph.NumNodes(), k: env.Cell.K}, nil
}

func (p *walkProc) Step()              { p.w.Step() }
func (p *walkProc) Run(rounds int64)   { p.w.Run(rounds) }
func (p *walkProc) Round() int64       { return p.w.Round() }
func (p *walkProc) Covered() int       { return p.w.Covered() }
func (p *walkProc) Reset()             { p.w.Reset() }
func (p *walkProc) Positions() []int   { return p.w.Positions() }
func (p *walkProc) Reseed(seed uint64) { p.w.Reseed(seed) }
func (p *walkProc) Visits(v int) int64 { return p.w.Visits(v) }
func (p *walkProc) NumAgents() int64   { return int64(p.w.NumWalkers()) }
func (p *walkProc) ResetCoverage()     { p.w.ResetCoverage() }
func (p *walkProc) CloneProc() Proc    { return &walkProc{w: p.w.Clone(), n: p.n, k: p.k} }

func (p *walkProc) ForEachFlow(fn func(v, port int, agents int64)) {
	p.w.ForEachFlow(fn)
}

// Schedule capabilities: walkers have no pointers and no held rounds, but
// support rewiring and churn.
func (p *walkProc) Rewire(g *graph.Graph, _ []int) error { return p.w.Rewire(g) }
func (p *walkProc) AddAgents(positions ...int) error     { return p.w.AddWalkers(positions...) }
func (p *walkProc) RemoveAgents(positions ...int) error  { return p.w.RemoveWalkers(positions...) }

func (p *walkProc) RunUntilCovered(maxRounds int64) (int64, error) {
	return p.w.RunUntilCovered(maxRounds)
}

// MeasureReturn implements ReturnMeasurer: the walk has no limit cycle, so
// its recurrence measure is the mean inter-visit gap over a long window
// (expectation n/k on the ring — the paper's closing comparison), with the
// worst observed gap reported as the period analogue.
func (p *walkProc) MeasureReturn(int64, bool) (ReturnOutcome, error) {
	n := int64(p.n)
	span := n / int64(p.k)
	if span < 1 {
		span = 1
	}
	// The window must dominate the (n/k)^2 diffusive scale or nodes
	// between two walkers can stay unvisited all window.
	burnIn, window := 10*n, 50*span*span+200*n
	gs := p.w.MeasureGaps(burnIn, window)
	return ReturnOutcome{Value: gs.MeanGap, Period: gs.MaxGap, Rounds: p.w.Round()}, nil
}

// measureCover is the cover metric: run until every node is visited within
// the budget. Unobserved jobs run the hot kernel loop in one call; observed
// jobs run it in chunks bounded by the next probe sample, so stride
// sampling never adds a per-round branch.
func measureCover(p Proc, env *JobEnv, budget int64, row *Row) {
	cr, ok := p.(CoverRunner)
	if !ok {
		row.Err = fmt.Sprintf("engine: process %q does not measure %q", row.Process, MetricCover)
		return
	}
	if len(env.Probes) == 0 {
		cover, err := cr.RunUntilCovered(budget)
		row.Rounds = p.Round()
		if err != nil {
			row.Err = err.Error()
			return
		}
		row.Value = float64(cover)
		return
	}

	runner := probe.NewRunner(env.Probes...)
	emit := func(pt probe.Point) { row.Series = append(row.Series, pt) }
	runner.Observe(p, emit) // sample the initial configuration (round 0)
	for {
		next := runner.Next(p.Round())
		if next > budget {
			next = budget
		}
		cover, err := cr.RunUntilCovered(next)
		if err == nil {
			row.Rounds = p.Round()
			row.Value = float64(cover)
			runner.Flush(p, emit) // close the series at the cover round
			return
		}
		if p.Round() >= budget {
			row.Rounds = p.Round()
			row.Err = err.Error()
			runner.Flush(p, emit)
			return
		}
		runner.Observe(p, emit)
	}
}

// measureReturn is the recurrence metric, dispatched through the
// ReturnMeasurer capability.
func measureReturn(p Proc, env *JobEnv, budget int64, row *Row) {
	rm, ok := p.(ReturnMeasurer)
	if !ok {
		row.Err = fmt.Sprintf("engine: process %q does not measure %q", row.Process, MetricReturn)
		return
	}
	out, err := rm.MeasureReturn(budget, env.Preserve)
	row.Rounds = out.Rounds
	if err != nil {
		row.Err = err.Error()
		return
	}
	row.Value = out.Value
	row.Period = out.Period
	row.MinVisits = out.MinVisits
	row.MaxVisits = out.MaxVisits
}

// runToFault advances a scheduled job through its perturbations, the shared
// front half of the perturbation metrics. It fails the row when the job has
// no schedule, the schedule has no fault boundary, or the fault lies beyond
// the round budget.
func runToFault(p Proc, metric string, budget int64, row *Row) (int64, bool) {
	fr, ok := p.(FaultRunner)
	if !ok {
		row.Err = fmt.Sprintf("engine: metric %q requires a schedule with a fault event (cell has none)", metric)
		return 0, false
	}
	fault := fr.RunToFault()
	if fault < 0 {
		row.Err = fmt.Sprintf("engine: metric %q requires a schedule with a bounded fault (schedule %q has none)", metric, row.Schedule)
		return 0, false
	}
	if fault >= budget {
		row.Rounds = p.Round()
		row.Err = fmt.Sprintf("engine: fault round %d exceeds the round budget %d", fault, budget)
		return 0, false
	}
	return fault, true
}

// measureRestab is the re-stabilization metric (X9): run the schedule to
// its fault boundary, then measure how many rounds the perturbed system
// needs to lock into its limit cycle (μ of the post-fault configuration).
// Value is that re-stabilization time; Period the limit cycle reached.
func measureRestab(p Proc, env *JobEnv, budget int64, row *Row) {
	fault, ok := runToFault(p, MetricRestab, budget, row)
	if !ok {
		return
	}
	// Dispatch on the measurement target: the schedule runner never
	// fabricates capabilities its inner process lacks.
	rm, ok := measureTarget(p).(RestabMeasurer)
	if !ok {
		row.Err = fmt.Sprintf("engine: process %q does not measure %q", row.Process, MetricRestab)
		return
	}
	out, err := rm.MeasureRestab(budget - fault)
	row.Rounds = p.Round()
	if err != nil {
		row.Err = err.Error()
		return
	}
	row.Value = float64(out.Restab)
	row.Period = out.Period
}

// measureCoverAfterFault is the re-coverage metric: run the schedule to its
// fault boundary, restart the coverage epoch from the surviving positions,
// and measure the rounds until the (possibly rewired) graph is fully
// covered again. Value is cover round minus fault round.
func measureCoverAfterFault(p Proc, env *JobEnv, budget int64, row *Row) {
	fault, ok := runToFault(p, MetricCoverAfterFault, budget, row)
	if !ok {
		return
	}
	cr, ok := measureTarget(p).(CoverageResetter)
	if !ok {
		row.Err = fmt.Sprintf("engine: process %q does not measure %q", row.Process, MetricCoverAfterFault)
		return
	}
	cr.ResetCoverage()
	runner, ok := p.(CoverRunner)
	if !ok {
		row.Err = fmt.Sprintf("engine: process %q does not measure %q", row.Process, MetricCoverAfterFault)
		return
	}
	cover, err := runner.RunUntilCovered(budget)
	row.Rounds = p.Round()
	if err != nil {
		row.Err = err.Error()
		return
	}
	row.Value = float64(cover - fault)
}
