package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rotorring/internal/graph"
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
// for cover-time runs, ReturnMeasurer for recurrence measurement, Reseeder
// for randomized processes whose cached instances are reused across
// replicas.
type Proc interface {
	Step()
	Round() int64
	Covered() int
	// Reset restores the initial configuration so a cached instance can be
	// reused for the next replica without reallocation.
	Reset()
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

// Reseeder is the capability of rewinding a randomized process's generator
// to a fresh deterministic state. The runner calls it (when implemented)
// before reusing a cached instance for a new replica.
type Reseeder interface {
	Reseed(seed uint64)
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
// When preserve is set the measurement must not disturb the instance's
// reusable state (the rotor measures on a clone).
type ReturnMeasurer interface {
	MeasureReturn(budget int64, preserve bool) (ReturnOutcome, error)
}

// The capabilities below are the mutation surface the schedule subsystem
// (schedule.go, scheduled.go) drives. A process implements the subset it
// supports; a schedule whose plan needs a missing capability fails as a
// per-job row, not a crash — the same graceful degradation metrics use.

// Holder is the capability of running delayed-deployment rounds (§2.1):
// StepHeld advances one round in which held[v] agents at node v skip their
// move, and AgentCountsView is a zero-copy, node-indexed view of the
// current agent counts, from which the schedule runner fills each round's
// hold draws in one flat loop. The view is read-only and stale after the
// next step; consumers re-fetch it every round.
type Holder interface {
	StepHeld(held []int64)
	AgentCountsView() []int64
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
	// configuration enters its limit cycle (μ of the post-fault system).
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

// Cloner is the capability of deep-copying a job instance (the invariant
// test suite exercises clone independence on every registered process).
type Cloner interface {
	CloneProc() Proc
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
// about the job at hand.
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
	// Preserve is set when the metric must leave the instance reusable for
	// the worker's next replica of the same cell.
	Preserve bool
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
	// Randomized reports whether replicas resample (the process consumes
	// the job seed).
	Randomized bool
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
	// Measure runs the metric on p (fresh or Reset) and fills the row's
	// measurement fields, recording failures in row.Err.
	Measure func(p Proc, env *JobEnv, budget int64, row *Row)
}

var (
	registryMu sync.RWMutex
	processes  = map[string]*ProcessDef{}
	metrics    = map[string]*MetricDef{}
)

// RegisterProcess adds a process to the registry. Names are normalized to
// lower case (specs and CLI flags lowercase their inputs before lookup,
// so a mixed-case registration would be unreachable). Duplicate names
// panic: process names appear in specs, rows and derived file formats and
// must stay unambiguous.
func RegisterProcess(d *ProcessDef) {
	if d.Name == "" || d.New == nil {
		panic("engine: RegisterProcess needs a name and a factory")
	}
	d.Name = strings.ToLower(d.Name)
	if d.BudgetHeadroom < 1 {
		d.BudgetHeadroom = 1
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := processes[d.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate process %q", d.Name))
	}
	processes[d.Name] = d
}

// RegisterMetric adds a metric to the registry. Names are normalized to
// lower case (see RegisterProcess); duplicate names panic.
func RegisterMetric(d *MetricDef) {
	if d.Name == "" || d.Measure == nil {
		panic("engine: RegisterMetric needs a name and a measurement")
	}
	d.Name = strings.ToLower(d.Name)
	if d.BudgetHeadroom < 1 {
		d.BudgetHeadroom = 1
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := metrics[d.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate metric %q", d.Name))
	}
	metrics[d.Name] = d
}

// LookupProcess returns a registered process by name.
func LookupProcess(name string) (*ProcessDef, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := processes[name]
	return d, ok
}

// LookupMetric returns a registered metric by name.
func LookupMetric(name string) (*MetricDef, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := metrics[name]
	return d, ok
}

// ProcessNames lists the registered process names, sorted.
func ProcessNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(processes))
	for n := range processes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MetricNames lists the registered metric names, sorted.
func MetricNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
	if d, ok := LookupProcess(process); ok && d.BudgetHeadroom > factor {
		factor = d.BudgetHeadroom
	}
	if m, ok := LookupMetric(metric); ok && m.BudgetHeadroom > factor {
		factor = m.BudgetHeadroom
	}
	return b * factor
}
