package rotorring

import (
	"context"
	"errors"
	"fmt"

	"rotorring/internal/engine"
	"rotorring/probe"
)

// ErrNotCovered is wrapped by every CoverTime error caused by an exhausted
// round budget, across all processes. Implementations of Process outside
// this package must wrap it too so CoverTimeContext can distinguish "out
// of budget, keep going" from a real failure.
var ErrNotCovered = errors.New("rotorring: cover-time budget exhausted")

// Process is the one polymorphic surface over the paper's exploration
// processes: the deterministic rotor-router and parallel random walks both
// satisfy it, and further processes (lock-in variants, tree analogues) can
// implement it without changes to the runners, observers or sweep layers.
//
// Beyond the common core, concrete processes expose extra behavior through
// capability interfaces that callers assert when needed: PointerReader
// (per-node port pointers), ReturnTimeMeasurer (limit-cycle recurrence),
// DomainAnalyzer (ring domain counts). The free functions RunContext,
// CoverTimeContext and ReturnTimeContext add cancellation and streaming
// observation on top of any Process.
type Process interface {
	// Step advances one synchronous round.
	Step()
	// Run advances the given number of rounds; a negative count is an
	// error and leaves the process untouched.
	Run(rounds int64) error
	// Round returns the number of completed rounds.
	Round() int64
	// Positions returns the multiset of current agent positions.
	Positions() []int
	// Visits returns how many times node v has been visited (including
	// initial placement).
	Visits(v int) int64
	// Covered returns how many distinct nodes have been visited so far.
	Covered() int
	// CoverTime runs until every node has been visited and returns the
	// cover time. maxRounds bounds the total rounds (0 selects the
	// automatic budget, see engine.AutoBudget); exhausting it returns an
	// error wrapping ErrNotCovered.
	CoverTime(maxRounds int64) (int64, error)
	// Reset restores the initial configuration and clears all counters.
	// Randomized processes keep their advanced generator state: a
	// reset-and-rerun is a fresh independent trial, not a replay (Clone
	// before running, or rebuild with the same Seed, to replay).
	Reset()
	// Clone returns an independent deep copy that evolves identically
	// from the current state (for randomized processes, including the
	// generator state).
	Clone() Process
	// NumAgents returns k, the number of agents.
	NumAgents() int
	// Graph returns the topology the process runs on.
	Graph() *Graph
	// ProcessName returns the registry name of the process kind ("rotor",
	// "walk") — the same name sweeps and CLI flags use.
	ProcessName() string
}

// Both simulators satisfy the Process interface (and their capability
// interfaces) by compile-time contract.
var (
	_ Process            = (*RotorSim)(nil)
	_ Process            = (*WalkSim)(nil)
	_ PointerReader      = (*RotorSim)(nil)
	_ ReturnTimeMeasurer = (*RotorSim)(nil)
	_ DomainAnalyzer     = (*RotorSim)(nil)
)

// PointerReader is the capability of exposing per-node port pointers
// (rotor-router processes).
type PointerReader interface {
	// Pointer returns the current port pointer at node v.
	Pointer(v int) int
}

// DomainAnalyzer is the capability of counting agent domains (§2.2;
// rotor-router on ring topologies).
type DomainAnalyzer interface {
	NumDomains() (int, error)
}

// ReturnTimeMeasurer is the capability of measuring the paper's return
// time on the limit behavior (Theorem 6).
type ReturnTimeMeasurer interface {
	// ReturnTime locates the limit cycle and measures the return time
	// exactly over one period; maxRounds = 0 selects the automatic budget.
	ReturnTime(maxRounds int64) (*ReturnStats, error)
	// ReturnTimeContext is ReturnTime with amortized cancellation checks.
	ReturnTimeContext(ctx context.Context, maxRounds int64) (*ReturnStats, error)
}

// ProcessKind selects which process New constructs.
type ProcessKind struct {
	name string
}

// RotorRouter selects the deterministic multi-agent rotor-router.
func RotorRouter() ProcessKind { return ProcessKind{engine.ProcRotor} }

// RandomWalk selects the randomized baseline: k independent synchronous
// random walks.
func RandomWalk() ProcessKind { return ProcessKind{engine.ProcWalk} }

// NamedProcess selects a process by its registry name ("rotor", "walk");
// New rejects names it cannot construct. It exists so callers can map
// sweep/CLI process names straight to constructors.
func NamedProcess(name string) ProcessKind { return ProcessKind{name} }

func (k ProcessKind) String() string {
	if k.name == "" {
		return engine.ProcRotor
	}
	return k.name
}

// New creates a simulation of the given process kind on g:
//
//	p, err := rotorring.New(g, rotorring.RotorRouter(),
//	    rotorring.Agents(8), rotorring.Place(rotorring.PlaceEqualSpacing))
//
// The concrete type behind the Process is *RotorSim or *WalkSim; assert a
// capability interface (or the concrete type) for process-specific
// behavior.
func New(g *Graph, kind ProcessKind, opts ...SimOption) (Process, error) {
	switch kind.name {
	case "", engine.ProcRotor:
		return newRotorSim(g, opts...)
	case engine.ProcWalk:
		return newWalkSim(g, opts...)
	default:
		return nil, fmt.Errorf("rotorring: unknown process %q (constructible: %s|%s)",
			kind.name, engine.ProcRotor, engine.ProcWalk)
	}
}

// ProcessNames lists the process names registered with the sweep engine,
// the vocabulary of SweepSpec.Process and NamedProcess.
func ProcessNames() []string { return engine.Processes.Names() }

// MetricNames lists the metric names registered with the sweep engine, the
// vocabulary of SweepSpec.Metric.
func MetricNames() []string { return engine.Metrics.Names() }

// Observer is a per-round observation hook with stride sampling; see
// rotorring/probe for the interface and how to implement custom observers.
// The built-in constructors below return recording observers whose sampled
// series is available via Points after the run.
type Observer = probe.Probe

// SeriesPoint is one sampled observation of a streaming observer.
type SeriesPoint = probe.Point

// RecordedObserver wraps an observer and retains every point it emits.
type RecordedObserver = probe.Recorded

// CoverageProbe returns a recording observer sampling the coverage curve
// (distinct nodes visited) every stride rounds.
func CoverageProbe(stride int64) (*RecordedObserver, error) {
	p, err := probe.New("coverage", probe.Env{Stride: stride})
	if err != nil {
		return nil, err
	}
	return probe.Record(p), nil
}

// HistogramProbe returns a recording observer sampling the position
// histogram of g's nodes (agents per bucket, up to 16 buckets) every
// stride rounds.
func HistogramProbe(g *Graph, stride int64) (*RecordedObserver, error) {
	p, err := probe.New("histogram", probe.Env{Stride: stride, Nodes: g.NumNodes()})
	if err != nil {
		return nil, err
	}
	return probe.Record(p), nil
}

// DomainCountProbe returns a recording observer sampling the number of
// agent domains every stride rounds (processes with the DomainAnalyzer
// capability; others yield no points).
func DomainCountProbe(stride int64) (*RecordedObserver, error) {
	p, err := probe.New("domains", probe.Env{Stride: stride})
	if err != nil {
		return nil, err
	}
	return probe.Record(p), nil
}

// cancelStride bounds how many rounds the context-aware runners execute
// between context checks: cancellation costs one branch per stride, not
// per round, so the hot kernel loop stays branch-free.
const cancelStride = 1 << 14

// discardPoint is the emit hook of the free-standing runners: built-in
// observers record their own series (RecordedObserver), so the runner
// drops the streamed copies.
func discardPoint(SeriesPoint) {}

// errNegativeRounds reports a negative round count.
func errNegativeRounds(rounds int64) error {
	return fmt.Errorf("rotorring: negative round count %d", rounds)
}

// RunContext advances p by the given number of rounds, checking ctx every
// cancelStride rounds and sampling the observers at multiples of their
// strides (plus the first and final round). It returns the context error
// if cancelled mid-run.
func RunContext(ctx context.Context, p Process, rounds int64, obs ...Observer) error {
	if rounds < 0 {
		return errNegativeRounds(rounds)
	}
	runner := probe.NewRunner(obs...)
	runner.Observe(p, discardPoint)
	end := p.Round() + rounds
	for p.Round() < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := min(end, runner.Next(p.Round()), p.Round()+cancelStride)
		if err := p.Run(next - p.Round()); err != nil {
			return err
		}
		runner.Observe(p, discardPoint)
	}
	runner.Flush(p, discardPoint)
	// All requested rounds completed: a cancellation racing the final
	// chunk must not report the finished run as failed.
	return nil
}

// CoverTimeContext is CoverTime over any Process with amortized
// cancellation and streaming observation: the hot loop runs in chunks
// bounded by cancelStride and the observers' next sample round, so a
// cancelled context returns promptly even under a blocking budget while
// unobserved stretches stay branch-free. maxRounds = 0 selects the
// automatic budget; exhausting it returns the rounds spent and an error
// wrapping ErrNotCovered.
func CoverTimeContext(ctx context.Context, p Process, maxRounds int64, obs ...Observer) (int64, error) {
	if maxRounds < 0 {
		return 0, errNegativeRounds(maxRounds)
	}
	if maxRounds == 0 {
		maxRounds = engine.AutoBudget(p.Graph(), p.ProcessName(), engine.MetricCover)
	}
	runner := probe.NewRunner(obs...)
	runner.Observe(p, discardPoint)
	for {
		if err := ctx.Err(); err != nil {
			return p.Round(), err
		}
		next := min(maxRounds, runner.Next(p.Round()), p.Round()+cancelStride)
		t, err := p.CoverTime(next)
		if err == nil {
			runner.Flush(p, discardPoint)
			return t, nil
		}
		if !errors.Is(err, ErrNotCovered) {
			return 0, err
		}
		if p.Round() >= maxRounds {
			runner.Flush(p, discardPoint)
			return p.Round(), err
		}
		runner.Observe(p, discardPoint)
	}
}

// ReturnTimeContext measures the return time of p with amortized
// cancellation checks, for processes with the ReturnTimeMeasurer
// capability; others return an error naming the process.
func ReturnTimeContext(ctx context.Context, p Process, maxRounds int64) (*ReturnStats, error) {
	m, ok := p.(ReturnTimeMeasurer)
	if !ok {
		return nil, fmt.Errorf("rotorring: process %q does not measure return times", p.ProcessName())
	}
	return m.ReturnTimeContext(ctx, maxRounds)
}
