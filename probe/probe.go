// Package probe is the streaming observation layer of the rotorring API:
// per-round hooks with stride sampling that turn a running process into a
// time series — coverage curves, position histograms, domain counts —
// without touching the hot stepping kernels. The same probes drive both
// the public facade (rotorring.RunContext and friends) and the sweep
// engine (internal/engine), where sampled points stream into the JSONL
// sink alongside each job's result row.
//
// A Probe observes a State (the minimal read-only view every process
// exposes) at rounds that are multiples of its stride. Probes that need
// more than Round/Covered declare it by asserting capability interfaces
// (Positioner, DomainCounter) and observe nothing when the process lacks
// the capability. New probes plug into sweeps by name through Register,
// whose table (internal/registry) keeps the engine registries' name
// policy — the engine never enumerates probe kinds.
package probe

import (
	"fmt"
	"math"
	"strings"

	"rotorring/internal/registry"
)

// Point is one sampled observation: the value of Key as measured by Probe
// after round Round. Points deliberately carry no wall-clock fields so
// observed runs stay bit-reproducible.
type Point struct {
	Probe string  `json:"probe"`
	Round int64   `json:"round"`
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// State is the minimal read-only view a probe observes. Every rotorring
// process (and every engine job instance) satisfies it.
type State interface {
	// Round is the number of completed rounds.
	Round() int64
	// Covered is the number of distinct nodes visited so far.
	Covered() int
}

// Positioner is the capability of reporting current agent positions,
// needed by the position-histogram probe.
type Positioner interface {
	Positions() []int
}

// DomainCounter is the capability of counting the current agent domains
// (rotor-router on the ring), needed by the domain-count probe.
type DomainCounter interface {
	NumDomains() (int, error)
}

// Probe is a per-round observation hook with stride sampling: the runner
// calls Observe after every round r with r % Stride() == 0 (including
// round 0) and once more at the final round of a run. Observe returns the
// points to emit; a probe whose capability the state lacks returns nil.
type Probe interface {
	// Name identifies the probe kind in emitted points.
	Name() string
	// Stride is the sampling period in rounds (>= 1).
	Stride() int64
	// Observe samples the state. It must not retain s or step it.
	Observe(s State) []Point
}

// Env parameterizes a probe factory.
type Env struct {
	// Stride is the sampling period in rounds; values < 1 are rejected.
	Stride int64
	// Nodes is the node count of the topology under observation (used by
	// probes that bucket per-node data, e.g. the position histogram).
	Nodes int
}

// factories is the probe registry.
var factories = registry.New[func(Env) (Probe, error)]("probe", "probe")

// Register adds a probe factory under a name, lower-cased. An empty name,
// one containing ':' or whitespace (the -probes flag separates name and
// stride with ':') or a duplicate panics: probe names are part of sweep
// specs and must stay unambiguous.
func Register(name string, factory func(Env) (Probe, error)) {
	factories.Add(name, factory)
}

// New builds a registered probe by name (case-insensitive).
func New(name string, env Env) (Probe, error) {
	factory, err := factories.Get(name)
	if err != nil {
		return nil, err
	}
	if env.Stride < 1 {
		return nil, fmt.Errorf("probe: %s: stride %d < 1", strings.ToLower(name), env.Stride)
	}
	return factory(env)
}

// Known reports whether a probe name is registered (case-insensitive).
func Known(name string) bool {
	_, ok := factories.Lookup(name)
	return ok
}

// Names lists the registered probe names, sorted.
func Names() []string { return factories.Names() }

// Runner drives a set of probes over a run: it tracks which sample rounds
// are due, deduplicates observations (a round is sampled at most once per
// probe, however the stepping loop is chunked), and computes how far the
// hot loop may run before the next sample. A Runner with no probes is
// inert and imposes no per-round work.
type Runner struct {
	probes    []Probe
	lastFired []int64
}

// NewRunner builds a runner over the given probes. Nil probes are skipped.
func NewRunner(probes ...Probe) *Runner {
	r := &Runner{}
	for _, p := range probes {
		if p == nil {
			continue
		}
		r.probes = append(r.probes, p)
		r.lastFired = append(r.lastFired, -1)
	}
	return r
}

// Empty reports whether the runner drives no probes; callers use it to
// keep the unobserved fast path branch-free.
func (r *Runner) Empty() bool { return r == nil || len(r.probes) == 0 }

// Next returns the first round strictly after round at which some probe is
// due, or math.MaxInt64 when the runner is empty. Stepping loops run the
// hot kernel in one chunk up to min(Next, budget, cancellation stride).
func (r *Runner) Next(round int64) int64 {
	if r.Empty() {
		return math.MaxInt64
	}
	next := int64(math.MaxInt64)
	for _, p := range r.probes {
		s := p.Stride()
		if due := (round/s + 1) * s; due < next {
			next = due
		}
	}
	return next
}

// Observe fires every probe whose stride divides the current round and that
// has not already sampled it, passing emitted points to emit.
func (r *Runner) Observe(s State, emit func(Point)) {
	r.observe(s, emit, false)
}

// Flush force-samples every probe at the current round (if not already
// sampled), closing the series at the final round of a run.
func (r *Runner) Flush(s State, emit func(Point)) {
	r.observe(s, emit, true)
}

func (r *Runner) observe(s State, emit func(Point), force bool) {
	if r.Empty() {
		return
	}
	round := s.Round()
	for i, p := range r.probes {
		if r.lastFired[i] == round {
			continue
		}
		if !force && round%p.Stride() != 0 {
			continue
		}
		r.lastFired[i] = round
		for _, pt := range p.Observe(s) {
			emit(pt)
		}
	}
}

// Recorded wraps a probe and accumulates every point it emits, for direct
// (non-sweep) use where the caller wants the series back after a run.
type Recorded struct {
	Probe
	pts []Point
}

// Record wraps p so its emitted points are retained.
func Record(p Probe) *Recorded { return &Recorded{Probe: p} }

// Observe implements Probe, retaining the emitted points. A round the
// recorder has already captured is streamed through but not re-recorded,
// so chaining runs over the same observer (each run samples its first
// round) cannot duplicate x-values in the accumulated series.
func (r *Recorded) Observe(s State) []Point {
	pts := r.Probe.Observe(s)
	if len(pts) > 0 && (len(r.pts) == 0 || r.pts[len(r.pts)-1].Round != pts[0].Round) {
		r.pts = append(r.pts, pts...)
	}
	return pts
}

// Points returns the accumulated series.
func (r *Recorded) Points() []Point { return r.pts }
