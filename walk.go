package rotorring

import (
	"fmt"

	"rotorring/internal/engine"
	"rotorring/internal/randwalk"
	"rotorring/internal/stats"
	"rotorring/internal/xrand"
)

// WalkSim is a system of k independent synchronous random walkers — the
// randomized baseline the paper compares the rotor-router against.
type WalkSim struct {
	walk      *randwalk.Walk
	g         *Graph
	positions []int
	seed      uint64
	kernel    KernelPolicy
}

// newWalkSim creates a random-walk simulation on g. Pointer options are
// ignored (walks have no pointers); placement, seed and kernel options
// apply — the Kernel option selects between per-agent stepping
// (KernelGeneric) and the counts-based engine (KernelFast), with KernelAuto
// choosing by walker density.
func newWalkSim(g *Graph, opts ...SimOption) (*WalkSim, error) {
	cfg := simConfig{seed: 1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	positions, _, err := cfg.resolve(g)
	if err != nil {
		return nil, err
	}
	w, err := randwalk.New(g, positions, xrand.New(cfg.seed),
		randwalk.WithMode(cfg.kernel.WalkMode()))
	if err != nil {
		return nil, err
	}
	return &WalkSim{walk: w, g: g, positions: positions, seed: cfg.seed, kernel: cfg.kernel}, nil
}

// NumAgents returns k.
func (w *WalkSim) NumAgents() int { return w.walk.NumWalkers() }

// Graph returns the topology the simulation runs on.
func (w *WalkSim) Graph() *Graph { return w.g }

// ProcessName returns the registry name of this process kind: "walk".
func (w *WalkSim) ProcessName() string { return engine.ProcWalk }

// Mode reports the stepping engine in use ("agents" or "counts").
func (w *WalkSim) Mode() string { return w.walk.Mode() }

// Round returns the number of completed rounds.
func (w *WalkSim) Round() int64 { return w.walk.Round() }

// Positions returns the current walker positions.
func (w *WalkSim) Positions() []int { return w.walk.Positions() }

// Covered returns the number of distinct nodes visited so far.
func (w *WalkSim) Covered() int { return w.walk.Covered() }

// Visits returns how many times node v has been visited (including initial
// placement).
func (w *WalkSim) Visits(v int) int64 { return w.walk.Visits(v) }

// Step moves every walker to a uniformly random neighbor.
func (w *WalkSim) Step() { w.walk.Step() }

// Run advances the given number of rounds. A negative count is an error
// and leaves the simulation untouched.
func (w *WalkSim) Run(rounds int64) error {
	if rounds < 0 {
		return errNegativeRounds(rounds)
	}
	w.walk.Run(rounds)
	return nil
}

// Reset restores the initial placement and clears all counters. The
// generator keeps its current state; combine with a fresh Seed-derived
// simulation (or Clone before running) for independent trials.
func (w *WalkSim) Reset() { w.walk.Reset() }

// Clone returns an independent deep copy, including the generator state:
// the copy and the original evolve identically from here.
func (w *WalkSim) Clone() Process {
	return &WalkSim{
		walk:      w.walk.Clone(),
		g:         w.g,
		positions: append([]int(nil), w.positions...),
		seed:      w.seed,
		kernel:    w.kernel,
	}
}

// CoverTime runs this one instance until all nodes are visited.
// maxRounds = 0 selects the automatic budget shared with the sweep engine
// (engine.AutoBudget): 4x the deterministic cover budget, the headroom
// every randomized run gets — the same rule ExpectedCoverTime and walk
// sweep jobs use, so the three can never disagree on when a trial is
// declared budget-exhausted. Exceeding the budget returns an error
// wrapping ErrNotCovered (and randwalk.ErrNotCovered).
func (w *WalkSim) CoverTime(maxRounds int64) (int64, error) {
	if maxRounds < 0 {
		return 0, errNegativeRounds(maxRounds)
	}
	if maxRounds == 0 {
		maxRounds = engine.AutoBudget(w.g, engine.ProcWalk, engine.MetricCover)
	}
	t, err := w.walk.RunUntilCovered(maxRounds)
	if err != nil {
		return t, fmt.Errorf("%w: %w", ErrNotCovered, err)
	}
	return t, nil
}

// CoverTimeSummary is the sample summary of repeated cover-time trials.
type CoverTimeSummary struct {
	// Trials is the number of independent runs.
	Trials int
	// Mean and StdErr estimate the expected cover time, the quantity the
	// paper's random-walk results are stated for.
	Mean   float64
	StdErr float64
	// Median, Min and Max describe the sample spread.
	Median float64
	Min    float64
	Max    float64
}

// ExpectedCoverTime estimates E[cover time] over independent trials with
// deterministic per-trial seeds (derived from the simulation seed). The
// trials restart from the configured initial placement; the state of this
// WalkSim is not consumed. maxRounds = 0 selects the same automatic budget
// as CoverTime (engine.AutoBudget's 4x randomized-run headroom).
func (w *WalkSim) ExpectedCoverTime(trials int, maxRounds int64) (CoverTimeSummary, error) {
	if maxRounds == 0 {
		maxRounds = engine.AutoBudget(w.g, engine.ProcWalk, engine.MetricCover)
	}
	times, err := randwalk.CoverTimes(w.g, w.positions, trials, w.seed, maxRounds,
		randwalk.WithMode(w.kernel.WalkMode()))
	if err != nil {
		return CoverTimeSummary{}, err
	}
	fs := stats.Floats(times)
	sum, err := stats.Summarize(fs)
	if err != nil {
		return CoverTimeSummary{}, err
	}
	return CoverTimeSummary{
		Trials: sum.N,
		Mean:   sum.Mean,
		StdErr: sum.StdErr,
		Median: sum.Median,
		Min:    sum.Min,
		Max:    sum.Max,
	}, nil
}

// GapStats reports recurrence measurements for the walk (analogous to the
// rotor-router's return time, though the walk only has expectations — §4's
// closing remark).
type GapStats = randwalk.GapStats

// MeasureGaps runs burnIn rounds, then observes window rounds and reports
// the visit-gap statistics: MeanGap ≈ n/k on the ring.
func (w *WalkSim) MeasureGaps(burnIn, window int64) GapStats {
	return w.walk.MeasureGaps(burnIn, window)
}
