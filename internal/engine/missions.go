package engine

import (
	"fmt"
	"strconv"
)

// Built-in mission families. Each is a plain RegisterMission call — the
// pattern for external families.
//
//	explore                      all edges traversed (either direction)
//	return                       explore, then the initial agent
//	                             configuration recurs (everyone home)
//	quiesce[:window=w]           configuration recurrence within a trailing
//	                             window: limit-cycle entry (lock-in)
//	patrol:horizon=r[,warmup=w]  run r rounds; report per-vertex idle-time
//	                             staleness after the warmup prefix
//	balance:horizon=r[,warmup=w] run r rounds; report visit-count fairness
//	                             after the warmup prefix
//
// All predicate state is incremental, fed by the FlowViewer and
// ConfigHasher capabilities: Observe reads the round's flow view, which
// costs O(arcs moved) after a generic round and O(n) after a kernel round
// (itself O(n)), or one hash for quiesce — never an O(E) rescan of mission
// state. Missions draw no randomness.

func init() {
	RegisterMission(noneMissionDef())
	RegisterMission(exploreDef())
	RegisterMission(returnDef())
	RegisterMission(quiesceDef())
	RegisterMission(serviceDef("patrol"))
	RegisterMission(serviceDef("balance"))
}

// missionNeeds is the capability-dispatch error of mission factories,
// mirroring the metric error ("process %q does not measure %q").
func missionNeeds(procName, mission, capability string) error {
	return fmt.Errorf("engine: process %q does not run mission %q (no %s)", procName, mission, capability)
}

// flowFeed feeds a mission state's per-arc callback from the process's flow
// view once per round. onFlow is bound once, at construction, so a round's
// read allocates nothing.
type flowFeed struct {
	view   FlowViewer
	onFlow func(v, port int, agents int64)
}

func (f *flowFeed) readFlows() { f.view.ForEachFlow(f.onFlow) }

// newFlowFeed dispatches a flow-reading mission on the FlowViewer
// capability. Its first read switches recording on for processes that
// record lazily (walks), so the first mission round is already observed.
func newFlowFeed(procName, mission string, p Proc) (flowFeed, error) {
	fv, ok := p.(FlowViewer)
	if !ok {
		return flowFeed{}, missionNeeds(procName, mission, "flow view")
	}
	fv.ForEachFlow(func(int, int, int64) {})
	return flowFeed{view: fv}, nil
}

// noParams is the Parse of parameterless mission families.
func noParams(params string) (string, error) {
	if params != "" {
		return "", fmt.Errorf("takes no parameters (got %q)", params)
	}
	return "", nil
}

// --- none ------------------------------------------------------------------

func noneMissionDef() *MissionDef {
	return &MissionDef{
		Name:    MissionNone,
		Parse:   noParams,
		Compile: func(string) (*MissionPlan, error) { return (&MissionPlan{}).finalize(), nil },
		New: func(*MissionPlan, string, *JobEnv, Proc) (MissionState, error) {
			// Cells carrying "none" never reach the mission runner: the
			// job runs its metric under the round budget instead.
			return nil, fmt.Errorf("engine: mission %q has no runner", MissionNone)
		},
	}
}

// --- explore ---------------------------------------------------------------

// exploreState tracks which undirected edges have been traversed (in either
// direction) as a bitmap over canonical arc ids: an edge's representative
// is the smaller of its two directed arc ids, resolved in O(1) through
// Arc.RevPort. remaining counts untraversed edges, so Done is O(1).
type exploreState struct {
	flowFeed
	env       *JobEnv
	seen      []bool // indexed by canonical (smaller) arc id
	remaining int
}

func newExploreState(env *JobEnv, feed flowFeed) *exploreState {
	st := &exploreState{
		flowFeed:  feed,
		env:       env,
		seen:      make([]bool, env.Graph.NumArcs()),
		remaining: env.Graph.NumEdges(),
	}
	st.onFlow = st.traverse
	return st
}

func (st *exploreState) traverse(v, port int, _ int64) {
	g := st.env.Graph
	id := g.ArcID(v, port)
	a := g.Arc(v, port)
	if rid := g.ArcID(a.To, a.RevPort); rid < id {
		id = rid
	}
	if !st.seen[id] {
		st.seen[id] = true
		st.remaining--
	}
}

func (st *exploreState) Observe(int64) { st.readFlows() }
func (st *exploreState) Done() bool    { return st.remaining == 0 }
func (st *exploreState) Finish(*Row)   {}

func exploreDef() *MissionDef {
	return &MissionDef{
		Name:    "explore",
		Parse:   noParams,
		Compile: func(string) (*MissionPlan, error) { return (&MissionPlan{BudgetFactor: 4}).finalize(), nil },
		New: func(_ *MissionPlan, procName string, env *JobEnv, p Proc) (MissionState, error) {
			feed, err := newFlowFeed(procName, "explore", p)
			if err != nil {
				return nil, err
			}
			return newExploreState(env, feed), nil
		},
	}
}

// --- return ----------------------------------------------------------------

// returnState is explore plus a home check: the mission completes at the
// first round boundary where every edge has been traversed AND the agent
// configuration (as a multiset over nodes — agents are indistinguishable)
// equals the initial placement. mismatch counts nodes whose current count
// differs from their initial count, maintained from per-arc flow deltas,
// so the check costs nothing beyond reading the flows. For the
// deterministic rotor-router the initial configuration recurs iff it lies
// on the limit cycle; transient starts (and random walks, whose
// configuration recurrence time is typically astronomical) end as
// mission_timeout rows instead.
type returnState struct {
	exploreState
	cur, init []int64
	mismatch  int
}

func newReturnState(env *JobEnv, feed flowFeed) *returnState {
	st := &returnState{exploreState: *newExploreState(env, feed)}
	st.onFlow = st.move
	n := env.Graph.NumNodes()
	st.cur = make([]int64, n)
	st.init = make([]int64, n)
	for _, v := range env.Positions {
		st.cur[v]++
		st.init[v]++
	}
	return st
}

func (st *returnState) move(v, port int, cnt int64) {
	st.traverse(v, port, cnt)
	st.shift(v, -cnt)
	st.shift(st.env.Graph.Neighbor(v, port), cnt)
}

func (st *returnState) shift(v int, d int64) {
	home := st.cur[v] == st.init[v]
	st.cur[v] += d
	if now := st.cur[v] == st.init[v]; now != home {
		if now {
			st.mismatch--
		} else {
			st.mismatch++
		}
	}
}

func (st *returnState) Done() bool { return st.remaining == 0 && st.mismatch == 0 }

func returnDef() *MissionDef {
	return &MissionDef{
		Name:    "return",
		Parse:   noParams,
		Compile: func(string) (*MissionPlan, error) { return (&MissionPlan{BudgetFactor: 8}).finalize(), nil },
		New: func(_ *MissionPlan, procName string, env *JobEnv, p Proc) (MissionState, error) {
			feed, err := newFlowFeed(procName, "return", p)
			if err != nil {
				return nil, err
			}
			return newReturnState(env, feed), nil
		},
	}
}

// --- quiesce ---------------------------------------------------------------

// defaultQuiesceWindow bounds the recurrence distance quiesce detects; the
// canonical spec always spells it out (like edgefail's count=1).
const defaultQuiesceWindow = int64(4096)

// maxQuiesceWindow caps the window: detection state is Θ(window) memory.
const maxQuiesceWindow = int64(1) << 24

// quiesceState detects limit-cycle entry: the mission completes at the
// first round whose configuration hash already occurred within the
// trailing window of window+1 rounds, reporting the recurrence distance as
// the period. Hash lookups make a round O(1); the window bounds memory.
// Equal hashes mean equal configurations up to a ~2^-64 collision chance —
// acceptable for a sweep column (the exact restab_time metric confirms
// cycles by full state comparison where certainty matters).
type quiesceState struct {
	hasher ConfigHasher
	window int64
	seen   map[uint64]int64 // hash -> round, for the trailing window
	ring   []uint64         // circular eviction buffer, len window+1
	done   bool
	period int64
}

func (st *quiesceState) record(round int64, h uint64) {
	idx := int(round % int64(len(st.ring)))
	if round >= int64(len(st.ring)) {
		delete(st.seen, st.ring[idx])
	}
	st.ring[idx] = h
	st.seen[h] = round
}

func (st *quiesceState) Observe(round int64) {
	h := st.hasher.ConfigHash()
	if prev, ok := st.seen[h]; ok {
		st.done = true
		st.period = round - prev
		return
	}
	st.record(round, h)
}

func (st *quiesceState) Done() bool { return st.done }

func (st *quiesceState) Finish(row *Row) { row.Period = st.period }

func quiesceDef() *MissionDef {
	parse := func(params string) (string, error) {
		kv, err := kvPairs(params, map[string]string{"window": "rounds"})
		if err != nil {
			return "", err
		}
		w := defaultQuiesceWindow
		if v, ok := kv["window"]; ok {
			if w, err = roundValue("window", v); err != nil {
				return "", err
			}
			if w > maxQuiesceWindow {
				return "", fmt.Errorf("window=%d exceeds the maximum %d", w, maxQuiesceWindow)
			}
		}
		return fmt.Sprintf("window=%d", w), nil
	}
	return &MissionDef{
		Name:  "quiesce",
		Parse: parse,
		Compile: func(canon string) (*MissionPlan, error) {
			kv, err := kvPairs(canon, map[string]string{"window": "rounds"})
			if err != nil {
				return nil, err
			}
			w, err := roundValue("window", kv["window"])
			if err != nil {
				return nil, err
			}
			return (&MissionPlan{Window: w, BudgetFactor: 4}).finalize(), nil
		},
		New: func(plan *MissionPlan, procName string, _ *JobEnv, p Proc) (MissionState, error) {
			h, ok := p.(ConfigHasher)
			if !ok {
				return nil, missionNeeds(procName, "quiesce", "configuration hashing")
			}
			st := &quiesceState{
				hasher: h,
				window: plan.Window,
				seen:   make(map[uint64]int64, plan.Window+1),
				ring:   make([]uint64, plan.Window+1),
			}
			st.record(0, h.ConfigHash()) // a run may start on its cycle
			return st, nil
		},
	}
}

// --- patrol / balance ------------------------------------------------------

// serviceParams parses the shared horizon=r[,warmup=w] grammar of the
// service missions. warmup defaults to horizon/2 (stabilization before
// measurement); an explicit warmup (0 allowed: measure from the start)
// must stay below the horizon.
func serviceParams(params string) (horizon, warmup int64, canon string, err error) {
	kv, err := kvPairs(params, map[string]string{"horizon": "rounds", "warmup": "rounds"})
	if err != nil {
		return 0, 0, "", err
	}
	v, ok := kv["horizon"]
	if !ok {
		return 0, 0, "", fmt.Errorf("missing horizon=<rounds>")
	}
	if horizon, err = roundValue("horizon", v); err != nil {
		return 0, 0, "", err
	}
	canon = fmt.Sprintf("horizon=%d", horizon)
	warmup = horizon / 2
	if v, ok := kv["warmup"]; ok {
		w, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || w < 0 {
			return 0, 0, "", fmt.Errorf("warmup=%s: want a non-negative round number", v)
		}
		if w >= horizon {
			return 0, 0, "", fmt.Errorf("warmup=%d must be below horizon=%d", w, horizon)
		}
		warmup = w
		canon += fmt.Sprintf(",warmup=%d", w)
	}
	return horizon, warmup, canon, nil
}

// patrolState measures per-vertex idle intervals over (warmup, horizon]:
// maxGap[v] is the longest stretch v went unvisited, the paper's service
// guarantee (Θ(n/k) on the ring for the rotor-router after stabilization).
// Every vertex is treated as visited at the warmup boundary, and Finish
// closes open gaps at the horizon, so never-visited vertices report the
// full measurement window.
type patrolState struct {
	flowFeed
	env      *JobEnv
	horizon  int64
	warmup   int64
	round    int64 // last observed round
	lastSeen []int64
	maxGap   []int64
}

func (st *patrolState) arrive(v, port int, _ int64) {
	r := st.round
	dest := st.env.Graph.Neighbor(v, port)
	if st.lastSeen[dest] == r {
		return // already seen this round
	}
	if gap := r - st.lastSeen[dest]; gap > st.maxGap[dest] {
		st.maxGap[dest] = gap
	}
	st.lastSeen[dest] = r
}

func (st *patrolState) Observe(round int64) {
	st.round = round
	if round > st.warmup {
		st.readFlows()
	}
}

func (st *patrolState) Done() bool { return st.round >= st.horizon }

func (st *patrolState) Finish(row *Row) {
	var max int64
	var sum float64
	for v := range st.lastSeen {
		g := st.maxGap[v]
		if tail := st.horizon - st.lastSeen[v]; tail > g {
			g = tail
		}
		if g > max {
			max = g
		}
		sum += float64(g)
	}
	row.StalenessMax = float64(max)
	row.StalenessMean = sum / float64(len(st.lastSeen))
	row.Value = row.StalenessMax
}

// balanceState accumulates per-vertex arrival counts over (warmup, horizon]
// and reports their spread: fairness = max/min visit counts (0 when some
// vertex was never visited), the load-balance quality of the process as a
// token-distribution service.
type balanceState struct {
	flowFeed
	env     *JobEnv
	horizon int64
	warmup  int64
	round   int64
	visits  []int64
}

func (st *balanceState) arrive(v, port int, cnt int64) {
	st.visits[st.env.Graph.Neighbor(v, port)] += cnt
}

func (st *balanceState) Observe(round int64) {
	st.round = round
	if round > st.warmup {
		st.readFlows()
	}
}

func (st *balanceState) Done() bool { return st.round >= st.horizon }

func (st *balanceState) Finish(row *Row) {
	min, max := st.visits[0], st.visits[0]
	for _, c := range st.visits[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	row.MinVisits, row.MaxVisits = min, max
	if min > 0 {
		row.Fairness = float64(max) / float64(min)
	}
	row.Value = row.Fairness
}

func serviceDef(name string) *MissionDef {
	return &MissionDef{
		Name: name,
		Parse: func(params string) (string, error) {
			_, _, canon, err := serviceParams(params)
			return canon, err
		},
		Compile: func(canon string) (*MissionPlan, error) {
			h, w, _, err := serviceParams(canon)
			if err != nil {
				return nil, err
			}
			return (&MissionPlan{Horizon: h, Warmup: w, BudgetFactor: 1}).finalize(), nil
		},
		New: func(plan *MissionPlan, procName string, env *JobEnv, p Proc) (MissionState, error) {
			feed, err := newFlowFeed(procName, name, p)
			if err != nil {
				return nil, err
			}
			n := env.Graph.NumNodes()
			if name == "balance" {
				st := &balanceState{flowFeed: feed, env: env, horizon: plan.Horizon, warmup: plan.Warmup, visits: make([]int64, n)}
				st.onFlow = st.arrive
				return st, nil
			}
			st := &patrolState{
				flowFeed: feed,
				env:      env,
				horizon:  plan.Horizon,
				warmup:   plan.Warmup,
				lastSeen: make([]int64, n),
				maxGap:   make([]int64, n),
			}
			for v := range st.lastSeen {
				st.lastSeen[v] = plan.Warmup
			}
			st.onFlow = st.arrive
			return st, nil
		},
	}
}
