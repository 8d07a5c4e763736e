package engine

import (
	"strings"

	"rotorring/internal/graph"
	"rotorring/internal/registry"
	"rotorring/internal/xrand"
	"rotorring/probe"
)

// This file is the engine's process/metric registry: sweeps name their
// process and metric as strings, and the registry supplies the factory and
// the measurement, so a new process (a lock-in rotor variant, a tree
// analogue, ...) or a new metric plugs in with one RegisterProcess /
// RegisterMetric call — no engine edits, no new spec fields.

// Proc is the engine's view of one runnable process instance inside a job:
// the minimal stepping surface every registered process provides. Probes
// observe it through rotorring/probe.State (Round/Covered), plus whatever
// capability interfaces the concrete instance implements (probe.Positioner,
// probe.DomainCounter).
//
// Metrics reach richer behavior through capability interfaces: CoverRunner
// for cover-time runs, ReturnMeasurer for recurrence measurement. Every
// job builds its own instance, so a process never has to rewind one.
type Proc interface {
	Step()
	Round() int64
	Covered() int
}

// CoverRunner is the capability of running until full coverage within a
// round budget, returning the cover time. maxRounds is an ABSOLUTE round
// count (stop once Round() reaches it), not a number of additional
// rounds: observed jobs call RunUntilCovered repeatedly with growing
// targets, resuming where the previous chunk stopped — the semantics of
// core.System.RunUntilCovered and randwalk.Walk.RunUntilCovered.
type CoverRunner interface {
	RunUntilCovered(maxRounds int64) (int64, error)
}

// ReturnOutcome is the result of a recurrence measurement.
type ReturnOutcome struct {
	// Value is the metric value: return time (rotor), mean inter-visit gap
	// (walk).
	Value float64
	// Period is the limit-cycle length (rotor) or the worst observed
	// inter-visit gap (walk).
	Period int64
	// MinVisits and MaxVisits are per-node visit extremes within one
	// period, when the process measures them (zero otherwise).
	MinVisits, MaxVisits int64
	// Rounds is the number of rounds the measurement executed.
	Rounds int64
}

// ReturnMeasurer is the capability of measuring the recurrence metric.
type ReturnMeasurer interface {
	MeasureReturn(budget int64) (ReturnOutcome, error)
}

// The capabilities below are the mutation surface the schedule subsystem
// (schedule.go, scheduled.go) drives. A process implements the subset it
// supports; a schedule whose plan needs a missing capability fails as a
// per-job row, not a crash — the same graceful degradation metrics use.

// Holder is the capability of running delayed-deployment rounds (§2.1):
// StepHeldFunc advances one round in which hold(v, c) of the c agents at
// each occupied node v skip their move. hold is asked once per occupied
// node, with its count, in an order the schedule runner must not depend
// on.
type Holder interface {
	StepHeldFunc(hold func(v int, c int64) int64)
}

// Rewirer is the capability of swapping the topology mid-run (same node
// set) — the edge-failure/repair primitive. Pointer processes receive the
// transplanted pointer vector; pointer-less processes are passed nil and
// ignore it.
type Rewirer interface {
	Rewire(g *graph.Graph, pointers []int) error
}

// PointerVector is the capability of exposing the full current pointer
// vector, which the schedule runner transplants across a rewire.
type PointerVector interface {
	Pointers() []int
}

// PointerSetter is the capability of overwriting every pointer mid-run
// (the rotor-reset perturbation).
type PointerSetter interface {
	SetPointers(pointers []int) error
}

// AgentJoiner and AgentLeaver are the churn capabilities: adding agents at
// given positions, and removing one agent from each listed position.
type AgentJoiner interface {
	AddAgents(positions ...int) error
}

// AgentLeaver is the departure half of churn.
type AgentLeaver interface {
	RemoveAgents(positions ...int) error
}

// CoverageResetter is the capability of starting a fresh coverage epoch at
// the current round (visit counters restart from the current positions),
// on which the cover-after-fault metric is built.
type CoverageResetter interface {
	ResetCoverage()
}

// VisitCounter is the capability of reporting per-node visit counts; the
// invariant test suite and custom probes use it.
type VisitCounter interface {
	Visits(v int) int64
}

// AgentCounter is the capability of reporting the current population size.
type AgentCounter interface {
	NumAgents() int64
}

// BulkRunner is the capability of advancing many rounds in one call
// (the hot kernel loop); the schedule runner uses it between events and
// falls back to Step otherwise.
type BulkRunner interface {
	Run(rounds int64)
}

// RestabOutcome is the result of a re-stabilization measurement.
type RestabOutcome struct {
	// Restab is the number of rounds from the measurement start until the
	// configuration enters its limit cycle (μ of the configuration at the
	// start: the post-fault one, or the initial one on an unscheduled cell).
	Restab int64
	// Period is the limit-cycle length reached.
	Period int64
}

// RestabMeasurer is the capability of measuring the stabilization time
// from the current configuration (the rotor locates its limit cycle; see
// the restab_time metric). budget bounds the additional rounds spent.
type RestabMeasurer interface {
	MeasureRestab(budget int64) (RestabOutcome, error)
}

// FaultRunner is the capability the perturbation metrics dispatch on: it
// is implemented by the schedule runner, which advances the process
// through its plan until every discrete perturbation has been applied and
// returns that fault round (-1 when the plan has no fault boundary).
type FaultRunner interface {
	RunToFault() int64
}

// FlowViewer is the capability of reporting the last round's per-arc
// flows: ForEachFlow calls fn once per (source vertex, port) arc that
// agents crossed in the last completed round, with the number that crossed
// it. Mission states read it from Observe to maintain incremental state
// without O(E) rescans. Reading must not change the trajectory or the
// stepping tier; a process that records flows while stepping may start
// recording at the first read (whose view is then empty).
type FlowViewer interface {
	ForEachFlow(fn func(v, port int, agents int64))
}

// ConfigHasher is the capability of reporting an incremental 64-bit hash of
// the full process configuration (positions + pointers for the rotor). The
// quiesce mission dispatches on it for O(1)-per-round limit-cycle
// detection.
type ConfigHasher interface {
	ConfigHash() uint64
}

// JobEnv is everything a process factory and a metric measurement may need
// about the job at hand. Every job builds its own JobEnv, and the factory
// builds a fresh instance from it.
type JobEnv struct {
	// Graph is the job's topology (shared, immutable).
	Graph *graph.Graph
	// Cell is the grid cell, including the placement and pointer policies.
	Cell Cell
	// Positions are the initial agent positions, already resolved from the
	// placement policy (consuming RNG draws for PlaceRandom).
	Positions []int
	// Seed is the derived per-job seed; RNG is the job generator, already
	// advanced past the placement draws.
	Seed uint64
	RNG  *xrand.Rand
	// Kernel is the sweep's stepping-tier selection.
	Kernel Kernel
	// Probes are the job's observation hooks (empty for unobserved jobs).
	Probes []probe.Probe
}

// ProcessDef describes one registered process.
type ProcessDef struct {
	// Name is the registry key, as it appears in SweepSpec.Process, rows
	// and CLI flags.
	Name string
	// UsesPointers reports whether pointer policies configure the process;
	// when false the sweep grid collapses the pointer axis and rows omit
	// the pointer column.
	UsesPointers bool
	// BudgetHeadroom multiplies the automatic round budget (>= 1):
	// randomized processes need headroom over the deterministic cover
	// bound. See AutoBudget for the shared rule.
	BudgetHeadroom int64
	// New builds a fresh instance for one job.
	New func(env *JobEnv) (Proc, error)
}

// MetricDef describes one registered metric.
type MetricDef struct {
	// Name is the registry key, as it appears in SweepSpec.Metric and rows.
	Name string
	// BudgetHeadroom multiplies the automatic round budget (>= 1); see
	// AutoBudget.
	BudgetHeadroom int64
	// Measure runs the metric on a freshly built p and fills the row's
	// measurement fields, recording failures in row.Err.
	Measure func(p Proc, env *JobEnv, budget int64, row *Row)
}

// Processes and Metrics are the process and metric registries.
var (
	Processes = registry.New[*ProcessDef]("engine", "process")
	Metrics   = registry.New[*MetricDef]("engine", "metric")
)

// RegisterProcess adds a process to Processes under its lower-cased name.
func RegisterProcess(d *ProcessDef) {
	if d.New == nil {
		panic("engine: RegisterProcess needs a factory")
	}
	d.Name = strings.ToLower(d.Name)
	if d.BudgetHeadroom < 1 {
		d.BudgetHeadroom = 1
	}
	Processes.Add(d.Name, d)
}

// RegisterMetric adds a metric to Metrics under its lower-cased name.
func RegisterMetric(d *MetricDef) {
	if d.Measure == nil {
		panic("engine: RegisterMetric needs a measurement")
	}
	d.Name = strings.ToLower(d.Name)
	if d.BudgetHeadroom < 1 {
		d.BudgetHeadroom = 1
	}
	Metrics.Add(d.Name, d)
}

// AutoBudget is the library's one automatic round-budget rule, shared by
// sweep jobs and the public facade so the two can never disagree on when a
// run is declared budget-exhausted: the deterministic cover bound
// (CoverBudget) times the larger of the process's and the metric's
// headroom factor. For the built-ins that is 1x for rotor cover runs and
// 4x for anything randomized (walk) or recurrence-measuring (return) —
// randomized trials and limit-cycle location need room above the
// deterministic Theta(n^2) worst case.
func AutoBudget(g *graph.Graph, process, metric string) int64 {
	b := CoverBudget(g)
	factor := int64(1)
	if d, ok := Processes.Lookup(process); ok && d.BudgetHeadroom > factor {
		factor = d.BudgetHeadroom
	}
	if m, ok := Metrics.Lookup(metric); ok && m.BudgetHeadroom > factor {
		factor = m.BudgetHeadroom
	}
	return b * factor
}
