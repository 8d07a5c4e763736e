// Package randwalk implements the parallel random-walk baseline that the
// paper compares the multi-agent rotor-router against: k agents performing
// independent simple random walks in synchronous rounds, with no
// coordination (§1, §3.3).
//
// Stepping is tiered like the rotor-router's (see internal/kernel). The
// per-agent engine moves every walker individually: O(k) generator draws
// per round. The counts-based engine (tier 3) stores walkers as per-node
// counts and scatters each occupied node's population over its ports with
// one multinomial draw — Bin(c, 1/2) clockwise movers on the ring — making
// a round O(occupied nodes) instead of O(k), the difference that matters
// in the paper's k ≫ n regimes. Both engines simulate exactly the same
// process; they consume randomness differently, so equal seeds give
// different (equally distributed) trajectories. The distribution tests in
// this package validate the two against each other.
//
// The rotor-router results are deterministic while the random-walk results
// are statements about expectations, so this package also provides
// repeated-trial estimators (CoverTimes) running independent walks under
// deterministic per-trial seeds.
package randwalk

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rotorring/internal/graph"
	"rotorring/internal/kernel"
	"rotorring/internal/xrand"
)

// ErrNotCovered is returned when a cover-time budget is exhausted.
var ErrNotCovered = errors.New("randwalk: cover-time budget exhausted")

// Mode selects the stepping engine of a Walk.
type Mode int

// Modes.
const (
	// ModeAuto picks counts-based stepping when k ≥ CountsFactor·n and
	// per-agent stepping otherwise. This is the default.
	ModeAuto Mode = iota
	// ModeAgents forces the per-agent engine.
	ModeAgents
	// ModeCounts forces the counts-based engine.
	ModeCounts
)

func (m Mode) String() string {
	switch m {
	case ModeAgents:
		return "agents"
	case ModeCounts:
		return "counts"
	default:
		return "auto"
	}
}

// CountsFactor is the density threshold of ModeAuto: counts-based rounds
// scan all n nodes, so they only pay off once there are at least a couple
// of walkers per node on average.
const CountsFactor = 2

// Walk is a system of k independent synchronous random walkers.
type Walk struct {
	g *graph.Graph
	// g0 is the construction-time topology; Rewire (perturbation
	// scenarios) swaps g, Reset restores g0.
	g0  *graph.Graph
	rng *xrand.Rand

	counts bool // counts-based stepping (tier 3)
	ring   bool // canonical ring: direct ±1 addressing, Bin(c, 1/2) split

	pos   []int   // per-agent engine: position of each walker
	cnt   []int64 // counts engine: walkers per node
	next  []int64 // counts engine: next-round double buffer
	split []int64 // counts engine, ring: per-node clockwise movers
	port  []int64 // counts engine: multinomial scratch (general graphs)

	pos0 []int // initial positions, for Reset

	k       int64
	covered int
	round   int64

	visits []int64 // arrival counts per node, plus initial placements

	// The last round's flow view (ForEachFlow): walkers per arc, indexed by
	// arc id, and the arcs it holds. Moves are drawn at random, so they are
	// recorded while stepping — but only once a consumer has read the
	// view: flow stays nil until the first ForEachFlow call.
	flow     []int64
	flowArcs []flowArc
}

// flowArc names an arc of the flow view by its source node and port.
type flowArc struct{ v, port int }

// Option configures a Walk at construction time.
type Option func(*walkConfig)

type walkConfig struct {
	mode Mode
}

// WithMode selects the stepping engine; the default is ModeAuto.
func WithMode(m Mode) Option {
	return func(c *walkConfig) { c.mode = m }
}

// New creates a walk system with the given starting positions. The rng is
// owned by the walk afterwards.
func New(g *graph.Graph, positions []int, rng *xrand.Rand, opts ...Option) (*Walk, error) {
	if len(positions) == 0 {
		return nil, errors.New("randwalk: no walkers placed")
	}
	var cfg walkConfig
	for _, o := range opts {
		o(&cfg)
	}
	n := g.NumNodes()
	w := &Walk{
		g:      g,
		g0:     g,
		rng:    rng,
		pos0:   append([]int(nil), positions...),
		k:      int64(len(positions)),
		visits: make([]int64, n),
	}
	for _, v := range positions {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("randwalk: position %d out of range [0,%d)", v, n)
		}
	}
	w.counts = cfg.mode == ModeCounts ||
		(cfg.mode == ModeAuto && w.k >= CountsFactor*int64(n))
	if w.counts {
		w.cnt = make([]int64, n)
		w.next = make([]int64, n)
		w.ring = kernel.DetectShape(g) == kernel.ShapeRing
		if w.ring {
			w.split = make([]int64, n)
		} else {
			maxDeg := 0
			for v := 0; v < n; v++ {
				if d := g.Degree(v); d > maxDeg {
					maxDeg = d
				}
			}
			w.port = make([]int64, maxDeg)
		}
	} else {
		w.pos = make([]int, 0, len(positions))
	}
	w.place()
	return w, nil
}

// place initializes the walker state and visit counters from pos0.
func (w *Walk) place() {
	if w.counts {
		for _, v := range w.pos0 {
			w.cnt[v]++
		}
	} else {
		w.pos = append(w.pos[:0], w.pos0...)
	}
	for _, v := range w.pos0 {
		if w.visits[v] == 0 {
			w.covered++
		}
		w.visits[v]++
	}
}

// Mode reports the stepping engine in use: "agents" or "counts".
func (w *Walk) Mode() string {
	if w.counts {
		return ModeCounts.String()
	}
	return ModeAgents.String()
}

// NumWalkers returns k.
func (w *Walk) NumWalkers() int { return int(w.k) }

// Round returns the number of completed rounds.
func (w *Walk) Round() int64 { return w.round }

// Covered returns the number of distinct nodes visited so far.
func (w *Walk) Covered() int { return w.covered }

// Visits returns the number of times node v has been visited (including
// initial placement).
func (w *Walk) Visits(v int) int64 { return w.visits[v] }

// At returns the number of walkers currently at v.
func (w *Walk) At(v int) int64 {
	if w.counts {
		return w.cnt[v]
	}
	var c int64
	for _, p := range w.pos {
		if p == v {
			c++
		}
	}
	return c
}

// Positions returns a copy of the walker positions. Walkers are
// indistinguishable under counts-based stepping, so the copy is sorted in
// that mode (and in whatever per-walker order the per-agent engine holds
// otherwise).
func (w *Walk) Positions() []int {
	if !w.counts {
		return append([]int(nil), w.pos...)
	}
	out := make([]int, 0, w.k)
	for v, c := range w.cnt {
		for i := int64(0); i < c; i++ {
			out = append(out, v)
		}
	}
	return out
}

// Step moves every walker to a uniformly random neighbor.
func (w *Walk) Step() {
	w.clearFlows()
	if w.counts {
		w.stepCounts()
	} else {
		w.stepAgents()
	}
	w.round++
}

// stepAgents is the per-agent engine: one draw per walker.
func (w *Walk) stepAgents() {
	for i, v := range w.pos {
		p := 0
		if d := w.g.Degree(v); d > 1 {
			p = w.rng.Intn(d)
		}
		dest := w.g.Neighbor(v, p)
		if w.flow != nil {
			w.record(v, p, 1)
		}
		w.pos[i] = dest
		if w.visits[dest] == 0 {
			w.covered++
		}
		w.visits[dest]++
	}
}

// stepCounts is the counts-based engine: one multinomial draw per occupied
// node. Every walker moves each round, so after the buffer swap the count
// array equals the round's arrival counts — a fact the recurrence
// measurements below rely on.
func (w *Walk) stepCounts() {
	cur, next := w.cnt, w.next
	if w.ring {
		// Gather formulation, two sequential passes: first draw every
		// node's clockwise-mover count, then assemble arrivals as
		// next[v] = cw[v-1] + ccw[v+1] — no buffer clear, no
		// read-modify-write scatter.
		n := len(cur)
		split := w.split
		rng := w.rng
		for v, c := range cur {
			if c == 0 {
				split[v] = 0
				continue
			}
			split[v] = rng.BinomialHalf(c)
		}
		next[0] = split[n-1] + cur[1] - split[1]
		for v := 1; v < n-1; v++ {
			next[v] = split[v-1] + cur[v+1] - split[v+1]
		}
		next[n-1] = split[n-2] + cur[0] - split[0]
		if w.flow != nil {
			// The gather pass above never touches arcs, so replay the
			// draws per arc: split[v] walkers clockwise, the rest the
			// other way.
			for v, c := range cur {
				w.recordRing(v, split[v], c-split[v])
			}
		}
	} else {
		for i := range next {
			next[i] = 0
		}
		for v, c := range cur {
			if c == 0 {
				continue
			}
			w.scatter(v, c, next)
		}
	}
	visits := w.visits
	if w.covered == len(visits) {
		// Fully covered: only the visit counters still change.
		for v, a := range next {
			if a != 0 {
				visits[v] += a
			}
		}
	} else {
		for v, a := range next {
			if a == 0 {
				continue
			}
			if visits[v] == 0 {
				w.covered++
			}
			visits[v] += a
		}
	}
	w.cnt, w.next = next, cur
}

// scatter sends the m walkers leaving v (counts engine, general graphs)
// along one multinomial draw over v's ports, accumulating arrivals in next.
func (w *Walk) scatter(v int, m int64, next []int64) {
	d := w.g.Degree(v)
	if d == 1 {
		next[w.g.Neighbor(v, 0)] += m
		if w.flow != nil {
			w.record(v, 0, m)
		}
		return
	}
	split := w.port[:d]
	w.rng.Multinomial(m, split)
	for p, x := range split {
		if x > 0 {
			next[w.g.Neighbor(v, p)] += x
			if w.flow != nil {
				w.record(v, p, x)
			}
		}
	}
}

// ForEachFlow calls f(v, port, walkers) for every arc that walkers
// traversed in the last completed round, with walkers >= 1 the number that
// crossed it, each arc once and in no particular order (mirroring
// core.System.ForEachFlow). f must not mutate the walk.
//
// Moves are drawn at random, so the view is recorded while stepping, from
// the first round after the first call on: like core.System.ConfigHash,
// the first call switches recording on (and reports an empty view), so
// walks that nobody observes record nothing. Reset and Rewire empty the
// view; Clone copies it.
func (w *Walk) ForEachFlow(f func(v, port int, walkers int64)) {
	if w.flow == nil {
		w.flow = make([]int64, w.g.NumArcs())
		return
	}
	for _, a := range w.flowArcs {
		f(a.v, a.port, w.flow[w.g.ArcID(a.v, a.port)])
	}
}

// record adds x walkers to this round's flow over arc (v, port).
func (w *Walk) record(v, port int, x int64) {
	id := w.g.ArcID(v, port)
	if w.flow[id] == 0 {
		w.flowArcs = append(w.flowArcs, flowArc{v, port})
	}
	w.flow[id] += x
}

// recordRing records the cw clockwise and ccw anticlockwise movers of ring
// node v. Only the canonical port layout is ring-shaped
// (kernel.DetectShape), so the ports are graph.RingCW and graph.RingCCW.
func (w *Walk) recordRing(v int, cw, ccw int64) {
	if cw > 0 {
		w.record(v, graph.RingCW, cw)
	}
	if ccw > 0 {
		w.record(v, graph.RingCCW, ccw)
	}
}

// clearFlows empties the flow view before a round (or a reset/rewire),
// touching only the arcs the last round used.
func (w *Walk) clearFlows() {
	for _, a := range w.flowArcs {
		w.flow[w.g.ArcID(a.v, a.port)] = 0
	}
	w.flowArcs = w.flowArcs[:0]
}

// forEachArrival invokes f(v, c) for every node that received c ≥ 1
// walkers during the last completed round.
func (w *Walk) forEachArrival(f func(v int, c int64)) {
	if w.counts {
		for v, c := range w.cnt {
			if c > 0 {
				f(v, c)
			}
		}
		return
	}
	for _, v := range w.pos {
		f(v, 1)
	}
}

// Run executes the given number of rounds.
func (w *Walk) Run(rounds int64) {
	for i := int64(0); i < rounds; i++ {
		w.Step()
	}
}

// RunUntilCovered steps until every node has been visited and returns the
// cover time. If maxRounds elapse first it returns ErrNotCovered.
func (w *Walk) RunUntilCovered(maxRounds int64) (int64, error) {
	n := w.g.NumNodes()
	for w.covered < n {
		if w.round >= maxRounds {
			return w.round, fmt.Errorf("%w after %d rounds (%d/%d nodes)",
				ErrNotCovered, w.round, w.covered, n)
		}
		w.Step()
	}
	return w.round, nil
}

// Reset restores the initial placement (on the construction-time topology,
// undoing any Rewire) and clears all counters, allowing a fresh run without
// reallocation (mirroring core.System.Reset). The generator state is left
// as is.
func (w *Walk) Reset() {
	w.clearFlows()
	if w.g != w.g0 {
		w.rewireTo(w.g0)
	}
	w.k = int64(len(w.pos0))
	w.round = 0
	w.covered = 0
	for v := range w.visits {
		w.visits[v] = 0
	}
	if w.counts {
		for v := range w.cnt {
			w.cnt[v] = 0
		}
	}
	w.place()
}

// Clone returns a deep copy of the walk, including the generator state:
// the copy and the original evolve identically from here (mirroring
// core.System.Clone).
func (w *Walk) Clone() *Walk {
	c := *w
	c.rng = w.rng.Clone()
	c.pos = append([]int(nil), w.pos...)
	c.cnt = append([]int64(nil), w.cnt...)
	c.next = append([]int64(nil), w.next...)
	c.split = append([]int64(nil), w.split...)
	c.port = append([]int64(nil), w.port...)
	c.pos0 = append([]int(nil), w.pos0...)
	c.visits = append([]int64(nil), w.visits...)
	c.flow = append([]int64(nil), w.flow...)
	c.flowArcs = append([]flowArc(nil), w.flowArcs...)
	return &c
}

// rewireTo points the walk at a different graph over the same node set and
// refreshes the shape-dependent fast-path state of the counts engine.
func (w *Walk) rewireTo(ng *graph.Graph) {
	w.clearFlows()
	w.g = ng
	if w.flow != nil {
		w.flow = make([]int64, ng.NumArcs()) // arc ids are per-graph
	}
	if !w.counts {
		return
	}
	w.ring = kernel.DetectShape(ng) == kernel.ShapeRing
	if w.ring {
		if w.split == nil {
			w.split = make([]int64, ng.NumNodes())
		}
	} else if len(w.port) < ng.MaxDegree() {
		w.port = make([]int64, ng.MaxDegree())
	}
}

// Rewire swaps the topology under the running walk — the edge-failure /
// repair primitive. ng must have the same node set; walker positions,
// visit counters and the round clock carry over (walkers have no pointers,
// so no transplant is needed). Reset returns to the construction-time
// topology.
func (w *Walk) Rewire(ng *graph.Graph) error {
	if ng.NumNodes() != w.g.NumNodes() {
		return fmt.Errorf("randwalk: Rewire changes the node count (%d -> %d)", w.g.NumNodes(), ng.NumNodes())
	}
	w.rewireTo(ng)
	return nil
}

// AddWalkers places one new walker on each listed node mid-run (the churn
// "join" primitive). Arrivals count as visits, exactly like initial
// placement. The initial configuration (Reset target) is unchanged.
func (w *Walk) AddWalkers(positions ...int) error {
	n := w.g.NumNodes()
	for _, v := range positions {
		if v < 0 || v >= n {
			return fmt.Errorf("randwalk: position %d out of range [0,%d)", v, n)
		}
	}
	for _, v := range positions {
		if w.counts {
			w.cnt[v]++
		} else {
			w.pos = append(w.pos, v)
		}
		w.k++
		if w.visits[v] == 0 {
			w.covered++
		}
		w.visits[v]++
	}
	return nil
}

// RemoveWalkers removes one walker from each listed node mid-run (the churn
// "leave" primitive). Every listed node must currently hold a walker, and
// at least one walker must remain afterwards.
func (w *Walk) RemoveWalkers(positions ...int) error {
	if int64(len(positions)) >= w.k {
		return errors.New("randwalk: RemoveWalkers would leave no walkers")
	}
	removeAt := func(v int) bool {
		if w.counts {
			if w.cnt[v] == 0 {
				return false
			}
			w.cnt[v]--
			return true
		}
		for i, p := range w.pos {
			if p == v {
				w.pos[i] = w.pos[len(w.pos)-1]
				w.pos = w.pos[:len(w.pos)-1]
				return true
			}
		}
		return false
	}
	for i, v := range positions {
		if v < 0 || v >= w.g.NumNodes() || !removeAt(v) {
			// Roll back so a failed removal leaves the walk unchanged.
			for _, u := range positions[:i] {
				if w.counts {
					w.cnt[u]++
				} else {
					w.pos = append(w.pos, u)
				}
				w.k++
			}
			return fmt.Errorf("randwalk: no walker to remove at node %d", v)
		}
		w.k--
	}
	return nil
}

// ResetCoverage starts a fresh coverage epoch at the current round: visit
// and cover bookkeeping restart as if the current walker positions were an
// initial placement, while positions and the round clock are untouched
// (mirroring core.System.ResetCoverage).
func (w *Walk) ResetCoverage() {
	w.covered = 0
	for v := range w.visits {
		w.visits[v] = 0
	}
	mark := func(v int, c int64) {
		if w.visits[v] == 0 {
			w.covered++
		}
		w.visits[v] += c
	}
	if w.counts {
		for v, c := range w.cnt {
			if c > 0 {
				mark(v, c)
			}
		}
	} else {
		for _, v := range w.pos {
			mark(v, 1)
		}
	}
}

// CoverTimes runs independent trials of the cover time of k synchronous
// random walks from the given positions, using deterministic per-trial
// seeds derived from seed. Trials run in parallel across workers (bounded
// by GOMAXPROCS), each trial on a Walk of its own. It fails if any trial
// exhausts maxRounds.
func CoverTimes(g *graph.Graph, positions []int, trials int, seed uint64, maxRounds int64, opts ...Option) ([]int64, error) {
	if trials <= 0 {
		return nil, errors.New("randwalk: trials must be positive")
	}
	times := make([]int64, trials)
	errs := make([]error, trials)

	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				trialSeed := seed + uint64(t)*0x9e3779b97f4a7c15
				w, err := New(g, positions, xrand.New(trialSeed), opts...)
				if err != nil {
					errs[t] = err
					continue
				}
				times[t], errs[t] = w.RunUntilCovered(maxRounds)
			}
		}()
	}
	for t := 0; t < trials; t++ {
		next <- t
	}
	close(next)
	wg.Wait()

	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t, err)
		}
	}
	return times, nil
}

// GapStats summarizes the recurrence of visits in a long window.
type GapStats struct {
	// Window is the number of observed rounds.
	Window int64
	// MaxGap is the longest observed interval during which some node was
	// unvisited (nodes never visited in the window count as Window).
	MaxGap int64
	// MeanGap is the average over nodes of window/visits — the empirical
	// mean return time, which on the ring is n/k in expectation.
	MeanGap float64
}

// MeasureGaps runs the walk for burnIn rounds, then observes window rounds
// and reports recurrence statistics.
func (w *Walk) MeasureGaps(burnIn, window int64) GapStats {
	w.Run(burnIn)
	n := w.g.NumNodes()
	lastSeen := make([]int64, n) // 0 = window start
	maxGap := make([]int64, n)
	count := make([]int64, n)
	for t := int64(1); t <= window; t++ {
		w.Step()
		w.forEachArrival(func(v int, c int64) {
			if g := t - lastSeen[v]; g > maxGap[v] {
				maxGap[v] = g
			}
			lastSeen[v] = t
			count[v] += c
		})
	}
	var stats GapStats
	stats.Window = window
	var meanSum float64
	for v := 0; v < n; v++ {
		if g := window - lastSeen[v]; g > maxGap[v] {
			maxGap[v] = g
		}
		if maxGap[v] > stats.MaxGap {
			stats.MaxGap = maxGap[v]
		}
		if count[v] > 0 {
			meanSum += float64(window) / float64(count[v])
		} else {
			meanSum += float64(window)
		}
	}
	stats.MeanGap = meanSum / float64(n)
	return stats
}
