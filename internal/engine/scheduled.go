package engine

import (
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/xrand"
	"rotorring/probe"
)

// scheduledProc is the schedule runner: it wraps a job's process instance
// and applies the cell's compiled SchedulePlan while stepping — discrete
// events (edge failure/repair, churn, pointer resets) fire at their
// planned rounds, and the delayed-deployment regime turns rounds into
// StepHeld rounds with per-agent Binomial hold draws. Between events the
// wrapper hands whole chunks to the inner process's hot path — plain
// stretches via RunUntilCovered / Run, hold-regime stretches via runHeld,
// whose rounds dispatch to the fused held kernels — so both regimes run
// specialized, bit-identically to an unscheduled run of the same
// configuration where the regimes coincide.
//
// Every seed-dependent choice is drawn from the job's schedule stream
// (scheduleSeedOf), never from worker identity; hold draws come from their
// own counter-based sub-stream (helddraw.go) keyed by (round, node), so
// neither worker counts nor chunk boundaries can shift them. Reset restores
// the pristine topology and initial configuration and rewinds the plan
// cursor and the streams, so cached prototypes stay reusable across
// replicas.
type scheduledProc struct {
	inner Proc
	plan  *SchedulePlan
	spec  string // canonical schedule spec, for error messages

	n        int // node count (constant across rewires)
	seed     uint64
	rng      *xrand.Rand
	draw     *heldDraw // hold-draw stream; nil when the plan has no hold regime
	pristine *graph.Graph
	cur      *graph.Graph
	toOld    [][]int32 // current port -> pristine port; nil when cur == pristine
	deleted  []bool    // deleted edges, by pristine arc id; nil until first failure
	next     int       // next plan event to apply
	held     []int64   // hold-draw scratch, node-indexed
}

// newScheduledProc wraps p with the schedule runner for inst. It fails —
// producing a per-job error row — when the plan needs a capability the
// process lacks.
func newScheduledProc(p Proc, procName string, inst schedInstance, env *JobEnv) (*scheduledProc, error) {
	plan := inst.plan
	need := func(ok bool, what string) error {
		if ok {
			return nil
		}
		return fmt.Errorf("engine: process %q does not support schedule %q (%s)",
			procName, inst.canonical, what)
	}
	if plan.HoldP > 0 {
		if _, ok := p.(Holder); !ok {
			return nil, need(false, "held rounds")
		}
	}
	for _, ev := range plan.Events {
		var err error
		switch ev.Kind {
		case EvEdgeFail, EvRepair:
			_, ok := p.(Rewirer)
			err = need(ok, "topology rewiring")
		case EvJoin:
			_, ok := p.(AgentJoiner)
			err = need(ok, "agent arrival")
		case EvLeave:
			_, okL := p.(AgentLeaver)
			_, okP := p.(probe.Positioner)
			err = need(okL && okP, "agent departure")
		case EvReset:
			_, ok := p.(PointerSetter)
			err = need(ok, "pointer reset")
		default:
			err = fmt.Errorf("engine: schedule %q: unknown event kind %v", inst.canonical, ev.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	seed := scheduleSeedOf(env.Seed, inst.canonical)
	sp := &scheduledProc{
		inner:    p,
		plan:     plan,
		spec:     inst.canonical,
		n:        env.Graph.NumNodes(),
		seed:     seed,
		rng:      xrand.New(seed),
		pristine: env.Graph,
		cur:      env.Graph,
	}
	if plan.HoldP > 0 {
		sp.draw = newHeldDraw(plan.HoldP, heldSeedOf(seed))
	}
	return sp, nil
}

// --- Proc surface ---------------------------------------------------------

func (sp *scheduledProc) Round() int64 { return sp.inner.Round() }
func (sp *scheduledProc) Covered() int { return sp.inner.Covered() }

// Step advances one round under the schedule: due events fire first, then
// the round runs held (hold regime) or plain.
func (sp *scheduledProc) Step() {
	sp.applyDue()
	if sp.holdActive() {
		sp.stepHeld()
		return
	}
	sp.inner.Step()
}

// Reset restores the initial configuration — pristine topology, initial
// agents and pointers (the inner Reset undoes rewires and churn) — and
// rewinds the plan cursor and the schedule stream.
func (sp *scheduledProc) Reset() {
	sp.inner.Reset()
	sp.next = 0
	sp.cur, sp.toOld = sp.pristine, nil
	for i := range sp.deleted {
		sp.deleted[i] = false
	}
	sp.rng.Reseed(sp.seed)
}

// Reseed implements Reseeder: the schedule stream follows the new job seed
// (cached prototypes are reseeded before each replica's Reset), and an
// inner randomized process is reseeded too.
func (sp *scheduledProc) Reseed(seed uint64) {
	if r, ok := sp.inner.(Reseeder); ok {
		r.Reseed(seed)
	}
	sp.seed = scheduleSeedOf(seed, sp.spec)
	sp.rng.Reseed(sp.seed)
	if sp.draw != nil {
		sp.draw.reseed(heldSeedOf(sp.seed))
	}
}

// --- capability forwarding ------------------------------------------------
// The wrapper forwards only the observation capabilities built-in probes
// dispatch on (they observe the wrapper, and observation never feeds
// measured values). Everything measurement-critical — CoverageResetter,
// RestabMeasurer, VisitCounter, AgentCounter, Cloner — is deliberately NOT
// re-implemented here: metrics and the conformance suite assert those on
// measureTarget(p), so a schedule runner can never fabricate a capability
// its inner process lacks, and missing capabilities keep failing as
// per-job rows.

// measureTarget returns the instance capability assertions should dispatch
// on: the process behind the schedule runner, or p itself.
func measureTarget(p Proc) Proc {
	if sp, ok := p.(*scheduledProc); ok {
		return sp.inner
	}
	return p
}

func (sp *scheduledProc) Positions() []int {
	if p, ok := sp.inner.(probe.Positioner); ok {
		return p.Positions()
	}
	return nil
}

func (sp *scheduledProc) NumDomains() (int, error) {
	if d, ok := sp.inner.(probe.DomainCounter); ok {
		return d.NumDomains()
	}
	return 0, fmt.Errorf("engine: process does not count domains")
}

// cloneScheduled returns an independent deep copy of the wrapper and its
// inner process (including the schedule stream). The inner process must
// implement Cloner — callers check measureTarget(p).(Cloner) first.
func (sp *scheduledProc) cloneScheduled() Proc {
	cp := *sp
	cp.inner = sp.inner.(Cloner).CloneProc()
	cp.rng = sp.rng.Clone()
	if sp.draw != nil {
		cp.draw = sp.draw.clone()
	}
	cp.deleted = append([]bool(nil), sp.deleted...)
	cp.held = nil
	return &cp
}

// cloneProc deep-copies any process whose measurement target implements
// Cloner, preserving an active schedule runner around the copy.
func cloneProc(p Proc) Proc {
	if sp, ok := p.(*scheduledProc); ok {
		return sp.cloneScheduled()
	}
	return p.(Cloner).CloneProc()
}

// --- scheduled stepping ---------------------------------------------------

// holdActive reports whether the delayed-deployment regime applies to the
// next round.
func (sp *scheduledProc) holdActive() bool {
	return sp.plan.HoldP > 0 && sp.inner.Round() < sp.plan.HoldUntil
}

// nextEventRound returns the round of the next unapplied event, or target
// when no event is due before it.
func (sp *scheduledProc) nextEventRound(target int64) int64 {
	if sp.next < len(sp.plan.Events) && sp.plan.Events[sp.next].Round < target {
		return sp.plan.Events[sp.next].Round
	}
	return target
}

// applyDue fires every event planned at or before the current round.
func (sp *scheduledProc) applyDue() {
	for sp.next < len(sp.plan.Events) && sp.plan.Events[sp.next].Round <= sp.inner.Round() {
		sp.apply(sp.plan.Events[sp.next])
		sp.next++
	}
}

// stepHeld runs one delayed-deployment round: each agent at an occupied
// node is held with probability HoldP (one Binomial draw per node, from the
// counter-based hold stream keyed by round and node), and the round executes
// on the process's held path — the fused held kernels on dense ring and path
// populations, the generic loop otherwise. The draws read the counts view,
// which goes stale at every step, so it is re-fetched each round. A held
// kernel reads every node, so its rounds fill every entry (empty nodes draw
// 0); the generic loop reads only its occupied nodes, so its rounds draw
// only at the HoldNodes list and leave stale holds elsewhere, which nothing
// reads.
func (sp *scheduledProc) stepHeld() {
	h := sp.inner.(Holder)
	if sp.held == nil {
		sp.held = make([]int64, sp.n)
	}
	base := sp.draw.roundBase(sp.inner.Round())
	if nodes := h.HoldNodes(); nodes != nil {
		sp.draw.fillAt(sp.held, h.AgentCountsView(), nodes, base)
	} else {
		sp.draw.fill(sp.held, h.AgentCountsView(), base)
	}
	h.StepHeld(sp.held)
}

// runHeld is the hold-regime chunk runner: it advances held rounds until
// target, the next plan event, the regime's end, or (when stopCovered) full
// coverage — whichever comes first. The loop body is the scheduled hot
// path: one draw pass and one held round, no event scans. Callers applyDue
// first, so the chunk bound is strictly ahead and progress is guaranteed.
func (sp *scheduledProc) runHeld(target int64, stopCovered bool) {
	bound := sp.nextEventRound(target)
	if sp.plan.HoldUntil < bound {
		bound = sp.plan.HoldUntil
	}
	for sp.inner.Round() < bound {
		if stopCovered && sp.inner.Covered() == sp.n {
			return
		}
		sp.stepHeld()
	}
}

// RunUntilCovered implements CoverRunner with absolute-round semantics: the
// hot inner loop runs in chunks bounded by the next event round — plain
// stretches on the inner runner, hold-regime stretches on runHeld — and
// observers chunk further on top (the metric's probe runner calls with
// growing targets, exactly as for an unscheduled job), so probes sample
// seamlessly across fault epochs.
func (sp *scheduledProc) RunUntilCovered(maxRounds int64) (int64, error) {
	cr, ok := sp.inner.(CoverRunner)
	if !ok {
		return 0, fmt.Errorf("engine: scheduled process does not run to coverage")
	}
	for {
		sp.applyDue()
		if sp.holdActive() {
			if sp.inner.Covered() == sp.n {
				// Covered: fetch the cover round without stepping (the
				// inner runner returns it immediately on a covered system).
				return cr.RunUntilCovered(sp.inner.Round())
			}
			if sp.inner.Round() >= maxRounds {
				// Out of budget: let the inner runner build the canonical
				// ErrNotCovered error.
				return cr.RunUntilCovered(maxRounds)
			}
			sp.runHeld(maxRounds, true)
			continue
		}
		t, err := cr.RunUntilCovered(sp.nextEventRound(maxRounds))
		if err == nil {
			return t, nil
		}
		if sp.inner.Round() >= maxRounds {
			return t, err
		}
		// Stopped at an event boundary: fire it and continue.
	}
}

// RunTo advances the schedule to the given absolute round (events at that
// round included), using the inner bulk path between events.
func (sp *scheduledProc) RunTo(target int64) {
	for sp.inner.Round() < target {
		sp.applyDue()
		if sp.holdActive() {
			sp.runHeld(target, false)
			continue
		}
		rounds := sp.nextEventRound(target) - sp.inner.Round()
		if rounds <= 0 {
			// The next event is due now; loop back to fire it.
			rounds = 1
		}
		if br, ok := sp.inner.(BulkRunner); ok {
			br.Run(rounds)
		} else {
			for i := int64(0); i < rounds; i++ {
				sp.inner.Step()
			}
		}
	}
	sp.applyDue()
}

// RunToFault implements FaultRunner: advance through the plan until every
// discrete perturbation has been applied.
func (sp *scheduledProc) RunToFault() int64 {
	if sp.plan.FaultRound < 0 {
		return -1
	}
	sp.RunTo(sp.plan.FaultRound)
	return sp.plan.FaultRound
}

// --- event application ----------------------------------------------------

// apply fires one event. Application is clamped, never failing: a plan that
// asks for more failures or departures than the graph or population can
// give applies as many as exist.
func (sp *scheduledProc) apply(ev ScheduleEvent) {
	switch ev.Kind {
	case EvEdgeFail:
		sp.failEdges(ev.Count)
	case EvRepair:
		sp.repair()
	case EvJoin:
		positions := core.RandomPositions(sp.n, ev.Count, sp.rng)
		// Positions are in range by construction; the join cannot fail.
		_ = sp.inner.(AgentJoiner).AddAgents(positions...)
	case EvLeave:
		sp.leave(ev.Count)
	case EvReset:
		_ = sp.inner.(PointerSetter).SetPointers(make([]int, sp.n))
	}
}

// leave removes up to count agents, chosen uniformly without replacement
// from the current population — clamped so at least one agent survives.
func (sp *scheduledProc) leave(count int) {
	pos := sp.inner.(probe.Positioner).Positions()
	if count > len(pos)-1 {
		count = len(pos) - 1
	}
	if count <= 0 {
		return
	}
	picks := make([]int, 0, count)
	m := len(pos)
	for i := 0; i < count; i++ {
		j := sp.rng.Intn(m)
		picks = append(picks, pos[j])
		pos[j] = pos[m-1]
		m--
	}
	// Picks are currently-held positions, so the removal cannot fail.
	_ = sp.inner.(AgentLeaver).RemoveAgents(picks...)
}

// failEdges deletes up to count edges, one at a time: each pick is a
// uniformly chosen non-bridge edge of the current graph (so the graph stays
// connected), bridges recomputed after every deletion. Fewer candidates
// than count means fewer deletions.
func (sp *scheduledProc) failEdges(count int) {
	for i := 0; i < count; i++ {
		bridges := sp.cur.Bridges()
		// Candidate edges, one arc per undirected edge, in canonical
		// (node, port) order so the uniform pick is reproducible.
		type arc struct{ v, p int }
		var cands []arc
		for v := 0; v < sp.n; v++ {
			for p := 0; p < sp.cur.Degree(v); p++ {
				if sp.cur.Neighbor(v, p) > v && !bridges[sp.cur.ArcID(v, p)] {
					cands = append(cands, arc{v, p})
				}
			}
		}
		if len(cands) == 0 {
			return // tree: every remaining edge is a bridge
		}
		pick := cands[sp.rng.Intn(len(cands))]
		// Translate the current-graph port to its pristine arc id and mark
		// the edge deleted there, so repair can restore everything at once.
		if sp.deleted == nil {
			sp.deleted = make([]bool, sp.pristine.NumArcs())
		}
		sp.deleted[sp.pristine.ArcID(pick.v, sp.toOldPort(pick.v, pick.p))] = true
		sp.rewire()
	}
}

// repair restores every deleted edge: the current graph becomes the
// pristine one again.
func (sp *scheduledProc) repair() {
	for i := range sp.deleted {
		sp.deleted[i] = false
	}
	sp.rewire()
}

// toOldPort maps a current-graph port of v back to the pristine port.
func (sp *scheduledProc) toOldPort(v, p int) int {
	if sp.toOld == nil {
		return p
	}
	return int(sp.toOld[v][p])
}

// rewire rebuilds the current graph from the pristine one and the deleted
// set, transplants the pointers, and swaps the topology under the process.
func (sp *scheduledProc) rewire() {
	ng, toOld := sp.pristine, [][]int32(nil)
	if sp.anyDeleted() {
		var err error
		// Deletions are non-bridges of the graph they were picked on, so
		// the masked graph is connected by construction.
		ng, toOld, err = graph.MaskEdges(sp.pristine, sp.deleted)
		if err != nil {
			panic(fmt.Sprintf("engine: schedule %q: %v", sp.spec, err))
		}
	}
	ptrs := sp.transplant(ng, toOld)
	if err := sp.inner.(Rewirer).Rewire(ng, ptrs); err != nil {
		panic(fmt.Sprintf("engine: schedule %q: %v", sp.spec, err))
	}
	sp.cur, sp.toOld = ng, toOld
}

func (sp *scheduledProc) anyDeleted() bool {
	for _, d := range sp.deleted {
		if d {
			return true
		}
	}
	return false
}

// transplant maps the current pointer vector onto the new graph: each
// pointer follows its pristine port, and a pointer whose port disappeared
// advances to the next surviving port in cyclic order — the natural rotor
// semantics of a vanished arc. Pointer-less processes get nil.
func (sp *scheduledProc) transplant(ng *graph.Graph, newToOld [][]int32) []int {
	pv, ok := sp.inner.(PointerVector)
	if !ok {
		return nil
	}
	cur := pv.Pointers()
	ptrs := make([]int, sp.n)
	for v := 0; v < sp.n; v++ {
		q := sp.toOldPort(v, cur[v]) // pristine port of the current pointer
		if newToOld == nil {
			ptrs[v] = q // full pristine graph: ports map identically
			continue
		}
		d0 := sp.pristine.Degree(v)
		newOf := make([]int, d0)
		for i := range newOf {
			newOf[i] = -1
		}
		for np, op := range newToOld[v] {
			newOf[op] = np
		}
		ptrs[v] = 0
		for i := 0; i < d0; i++ {
			if np := newOf[(q+i)%d0]; np >= 0 {
				ptrs[v] = np
				break
			}
		}
	}
	return ptrs
}
