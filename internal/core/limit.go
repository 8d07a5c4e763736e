package core

import (
	"errors"
	"fmt"
)

// This file analyzes the limit behavior of the rotor-router (paper §4).
// A rotor-router is a deterministic finite-state system, so from any
// initialization it eventually cycles through a finite set of
// configurations. FindLimitCycle locates that cycle with Brent's algorithm
// (hash-compare fast path, full-state confirmation), MeasureReturnTime
// computes the paper's return time — the longest interval during which some
// node stays unvisited in the limit — exactly over one period, and
// MeasureCirculation verifies the Yanovski et al. Eulerian-circulation
// property of the single-agent limit from the per-round flow view.

// ErrNoCycle is returned when the round budget expires before the limit
// cycle is confirmed.
var ErrNoCycle = errors.New("core: limit cycle not found within round budget")

// ErrStopped is returned by the *Stop measurement variants when the
// caller's stop check fires before the measurement completes.
var ErrStopped = errors.New("core: measurement stopped")

// stopStride is how many steps the *Stop variants run between stop checks:
// cancellation stays amortized so the hot stepping loop is not branched
// per round, while a pending stop is still honored promptly.
const stopStride = 4096

// stopped polls an optional stop check every stopStride steps.
func stopped(stop func() bool, steps int64) bool {
	return stop != nil && steps%stopStride == 0 && stop()
}

// LimitCycle describes the detected limit behavior.
type LimitCycle struct {
	// Period is the length λ of the limit cycle in rounds.
	Period int64
	// StabilizationRound is μ, the first round whose configuration recurs
	// forever, or -1 when its computation was not requested.
	StabilizationRound int64
	// DetectedAt is the round (of the probe system) at which the cycle was
	// confirmed; it upper-bounds μ + 2λ up to Brent's power-of-two slack.
	DetectedAt int64
}

// FindLimitCycle runs s forward until its configuration provably repeats
// and returns the cycle parameters. On return, s is parked at a
// configuration inside the limit cycle. If computeMu is true the exact
// stabilization round μ is computed with a second pass over a pristine
// copy of the initial configuration (costing about 2μ extra steps).
func FindLimitCycle(s *System, maxRounds int64, computeMu bool) (*LimitCycle, error) {
	return FindLimitCycleStop(s, maxRounds, computeMu, nil)
}

// FindLimitCycleStop is FindLimitCycle with a cooperative cancellation
// hook: stop (when non-nil) is polled every stopStride steps, and a true
// result aborts the search with an error wrapping ErrStopped. Context
// plumbing lives in the callers; core stays context-free.
func FindLimitCycleStop(s *System, maxRounds int64, computeMu bool, stop func() bool) (*LimitCycle, error) {
	// Cycle detection needs the configuration hash every round; switch it
	// on before snapshotting so every clone inherits it (tier 2: systems
	// that never detect cycles never pay for hashing).
	s.EnableConfigHash()
	var initial *System
	if computeMu {
		initial = s.Clone()
	}

	// Brent's cycle detection: tortoise snapshots at power-of-two rounds.
	power := int64(1)
	lam := int64(0)
	tortoise := s.Clone()
	start := s.st.Round
	for {
		if lam == power {
			tortoise = s.Clone()
			power *= 2
			lam = 0
		}
		if s.st.Round-start >= maxRounds {
			return nil, fmt.Errorf("%w (ran %d rounds)", ErrNoCycle, s.st.Round-start)
		}
		if stopped(stop, s.st.Round-start) {
			return nil, fmt.Errorf("%w during cycle search (after %d rounds)", ErrStopped, s.st.Round-start)
		}
		s.Step()
		lam++
		if s.st.Hash == tortoise.st.Hash && s.StateEqual(tortoise) {
			break
		}
	}

	lc := &LimitCycle{Period: lam, StabilizationRound: -1, DetectedAt: s.st.Round}
	if computeMu {
		mu, err := findMu(initial, lam, maxRounds, stop)
		if err != nil {
			return nil, err
		}
		lc.StabilizationRound = mu
	}
	return lc, nil
}

// findMu advances a pair of copies of the initial configuration, offset by
// the period, until they coincide; the number of rounds taken is μ.
func findMu(initial *System, period, maxRounds int64, stop func() bool) (int64, error) {
	lead := initial.Clone()
	lead.Run(period)
	mu := int64(0)
	for !(initial.st.Hash == lead.st.Hash && initial.StateEqual(lead)) {
		if mu > maxRounds {
			return 0, fmt.Errorf("%w (μ search exceeded %d rounds)", ErrNoCycle, maxRounds)
		}
		if stopped(stop, mu) {
			return 0, fmt.Errorf("%w during μ search (after %d rounds)", ErrStopped, mu)
		}
		initial.Step()
		lead.Step()
		mu++
	}
	return mu, nil
}

// ReturnStats summarizes visit recurrence in the limit cycle (paper §4).
type ReturnStats struct {
	// Period is the limit-cycle length λ.
	Period int64
	// ReturnTime is the paper's return time: the maximum over nodes of the
	// longest interval (in rounds) during which the node is unvisited,
	// measured exactly over one period with wraparound.
	ReturnTime int64
	// MeanGap is the average over nodes of each node's mean inter-visit
	// gap, a fairness indicator (≈ period · n / total visits).
	MeanGap float64
	// MinNodeVisits and MaxNodeVisits are the extremes of per-node visit
	// counts within one period.
	MinNodeVisits int64
	MaxNodeVisits int64
}

// MeasureReturnTime finds the limit cycle of s and measures the exact
// return time over one full period. On return s is parked inside the cycle.
func MeasureReturnTime(s *System, maxRounds int64) (*ReturnStats, error) {
	return MeasureReturnTimeStop(s, maxRounds, nil)
}

// MeasureReturnTimeStop is MeasureReturnTime with a cooperative
// cancellation hook, polled every stopStride steps of both the cycle
// search and the period measurement; a true result aborts with an error
// wrapping ErrStopped.
func MeasureReturnTimeStop(s *System, maxRounds int64, stop func() bool) (*ReturnStats, error) {
	lc, err := FindLimitCycleStop(s, maxRounds, false, stop)
	if err != nil {
		return nil, err
	}
	n := s.n
	first := make([]int64, n)
	last := make([]int64, n)
	gap := make([]int64, n)
	count := make([]int64, n)
	for v := range first {
		first[v] = -1
	}
	for t := int64(1); t <= lc.Period; t++ {
		if stopped(stop, t) {
			return nil, fmt.Errorf("%w during period measurement (round %d of %d)", ErrStopped, t, lc.Period)
		}
		s.Step()
		for _, v := range s.LastVisited() {
			if first[v] < 0 {
				first[v] = t
			} else if g := t - last[v]; g > gap[v] {
				gap[v] = g
			}
			last[v] = t
			count[v]++
		}
	}
	stats := &ReturnStats{Period: lc.Period, MinNodeVisits: -1}
	var meanSum float64
	for v := 0; v < n; v++ {
		if first[v] < 0 {
			return nil, fmt.Errorf("core: node %d is never visited in the limit cycle (period %d)", v, lc.Period)
		}
		// Close the cyclic window: the gap across the period boundary.
		if g := (lc.Period - last[v]) + first[v]; g > gap[v] {
			gap[v] = g
		}
		if gap[v] > stats.ReturnTime {
			stats.ReturnTime = gap[v]
		}
		if stats.MinNodeVisits < 0 || count[v] < stats.MinNodeVisits {
			stats.MinNodeVisits = count[v]
		}
		if count[v] > stats.MaxNodeVisits {
			stats.MaxNodeVisits = count[v]
		}
		meanSum += float64(lc.Period) / float64(count[v])
	}
	stats.MeanGap = meanSum / float64(n)
	return stats, nil
}

// CirculationStats describes per-arc traffic over one limit-cycle period.
type CirculationStats struct {
	// LimitCycle is the cycle the traffic was counted over; its
	// StabilizationRound is -1 unless μ was requested.
	LimitCycle
	// MinArc and MaxArc are the extremes of per-arc traversal counts in
	// one period.
	MinArc int64
	MaxArc int64
	// Balanced reports MinArc == MaxArc: the system settled into a
	// circulation that uses every arc equally often — for a single agent
	// this is precisely the Eulerian cycle of Ĝ (Yanovski et al. [27]).
	Balanced bool
}

// MeasureCirculation finds the limit cycle as FindLimitCycle does (with μ
// when computeMu is true) and counts per-arc traversals over the next
// period, summing each round's ForEachFlow view.
func MeasureCirculation(s *System, maxRounds int64, computeMu bool) (*CirculationStats, error) {
	lc, err := FindLimitCycle(s, maxRounds, computeMu)
	if err != nil {
		return nil, err
	}
	g := s.g
	count := make([]int64, g.NumArcs())
	tally := func(v, p int, agents int64) { count[g.ArcID(v, p)] += agents }
	for r := int64(0); r < lc.Period; r++ {
		s.Step()
		s.ForEachFlow(tally)
	}
	stats := &CirculationStats{LimitCycle: *lc, MinArc: count[0], MaxArc: count[0]}
	for _, d := range count {
		stats.MinArc = min(stats.MinArc, d)
		stats.MaxArc = max(stats.MaxArc, d)
	}
	stats.Balanced = stats.MinArc == stats.MaxArc
	return stats, nil
}
