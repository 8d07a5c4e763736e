package core

import (
	"errors"
	"fmt"
)

// This file analyzes the limit behavior of the rotor-router (paper §4).
// A rotor-router is a deterministic finite-state system, so from any
// initialization it eventually cycles through a finite set of
// configurations. FindLimitCycle locates that cycle with Brent's algorithm
// (hash-compare fast path, full-state confirmation), and MeasureReturnTime
// computes the paper's return time — the longest interval during which some
// node stays unvisited in the limit — exactly over one period.

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
// stabilization round μ is computed with a second pass over two copies, one
// period apart. The pass starts from Brent's last snapshot before the
// cycle when the search proved it lies before μ, and from a copy of the
// initial configuration otherwise; it costs λ + 2(μ − T) extra steps from
// a start T rounds after the initial configuration.
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
	// prev is the snapshot before the current tortoise.
	power := int64(1)
	lam := int64(0)
	tortoise := s.Clone()
	var prev *System
	start := s.st.Round
	for {
		if lam == power {
			prev, tortoise = tortoise, s.Clone()
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
		if s.hash == tortoise.hash && s.StateEqual(tortoise) {
			break
		}
	}

	lc := &LimitCycle{Period: lam, StabilizationRound: -1, DetectedAt: s.st.Round}
	if computeMu {
		// The tortoise sits power − 1 rounds after start and prev power/2
		// − 1. With λ ≤ power/2, prev was compared with the power/2 ≥ λ
		// configurations after it without a match, and a configuration in
		// the cycle matches itself λ rounds later: so prev lies before μ,
		// and μ is prev's offset plus the μ search from prev.
		from, offset := initial, int64(0)
		if prev != nil && 2*lam <= power {
			from, offset = prev, prev.st.Round-start
		}
		mu, err := findMu(from, lam, maxRounds, stop)
		if err != nil {
			return nil, err
		}
		lc.StabilizationRound = offset + mu
	}
	return lc, nil
}

// findMu advances a pair of copies of the configuration initial, offset by
// the period, until they coincide, and returns the number of rounds taken:
// μ when initial is the configuration FindLimitCycle started from, μ − T
// from a configuration T < μ rounds after it.
func findMu(initial *System, period, maxRounds int64, stop func() bool) (int64, error) {
	lead := initial.Clone()
	lead.Run(period)
	mu := int64(0)
	for !(initial.hash == lead.hash && initial.StateEqual(lead)) {
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
	n, g := s.n, s.g
	first := make([]int64, n)
	last := make([]int64, n)
	gap := make([]int64, n)
	count := make([]int64, n)
	for v := range first {
		first[v] = -1
	}
	// A node is visited in round t when it heads an arc of that round's
	// flow view; last[v] == t skips its other incoming arcs.
	var t int64
	visit := func(u, port int, _ int64) {
		v := g.Neighbor(u, port)
		if last[v] == t {
			return
		}
		if first[v] < 0 {
			first[v] = t
		} else if d := t - last[v]; d > gap[v] {
			gap[v] = d
		}
		last[v] = t
		count[v]++
	}
	for t = 1; t <= lc.Period; t++ {
		if stopped(stop, t) {
			return nil, fmt.Errorf("%w during period measurement (round %d of %d)", ErrStopped, t, lc.Period)
		}
		s.Step()
		s.ForEachFlow(visit)
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
