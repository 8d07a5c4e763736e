// Package core implements the multi-agent rotor-router system of Klasing,
// Kosowski, Pająk and Sauerwald (PODC 2013 / Distrib. Comput. 2017), §1.3.
//
// A configuration is a triple ((ρ_v), (π_v), {r_1..r_k}): the fixed cyclic
// port orders, the current port pointers, and the multiset of agent
// positions. In every synchronous round each agent at node v traverses the
// arc indicated by π_v and the pointer advances; a node holding c agents at
// the start of a round emits them along ports π_v, next(π_v), ...,
// next^{c-1}(π_v) and its pointer ends advanced by c. Agents are
// indistinguishable, so the engine stores agent counts per node and
// processes only occupied nodes, making a round cost O(Σ_{occupied v}
// min(deg v, agents at v)) instead of O(k). Beyond the configuration a
// System keeps the paper's visit counters n_v(t), which coverage reads;
// its exit counters follow by conservation, e_v(t) = n_v(t) − (agents at
// v), and are not stored.
//
// Stepping is tiered (see internal/kernel): on ring and path topologies
// with dense agent populations (k ≥ n/kernel.DenseFraction), NewSystem
// selects a specialized flat kernel whose rounds are a few linear scans
// with direct v±1 addressing and closed-form degree-2 port splits —
// bit-identical to the generic engine, several times faster. Below that
// density, fully-active rounds run the sparse degree-2 round (sparse.go):
// the generic occupied-list round with the same closed forms, 1.6–2.3× as
// fast as the generic engine in the paper's k ≪ n regime. With fewer
// agents still (n ≥ WindowSpread·k²), Run and RunUntilCovered move lone,
// well-separated agents through interaction-free windows: stretches of
// rounds in which no two agents can meet, run as one tight loop over the
// agents, exact to the occupied order (sparse.go). WithKernelMode
// forces the generic engine or the flat kernel; anything off the ring/path
// runs on the generic path. Every tier leaves the round's movers behind, so
// ForEachFlow reads the last round's per-arc flows on demand without
// recording anything while stepping.
//
// The engine also supports delayed deployments (§2.1): StepHeld freezes a
// chosen number of agents per node for one round, which is the primitive
// that the deploy package's schedules are built from.
package core

import (
	"errors"
	"fmt"

	"rotorring/internal/graph"
	"rotorring/internal/kernel"
	"rotorring/internal/xrand"
)

// ErrNotCovered is returned by RunUntilCovered when the round budget is
// exhausted before every node has been visited.
var ErrNotCovered = errors.New("core: cover-time budget exhausted")

// KernelMode selects the stepping tier of a System.
type KernelMode int

// Kernel modes.
const (
	// KernelAuto picks by topology and density. On the canonical ring and
	// path it runs the flat kernel when k ≥ n/kernel.DenseFraction (n/4)
	// and the sparse degree-2 round below that; held rounds there take the
	// flat kernel's held tier or, when sparse, the generic loop. Every
	// other topology runs the generic engine. This is the default.
	KernelAuto KernelMode = iota
	// KernelGeneric forces the generic port-labeled-graph engine.
	KernelGeneric
	// KernelFast forces the specialized kernel whenever the topology has
	// one, regardless of density; unsupported topologies silently use the
	// generic engine (so grids mixing ring and torus cells need no
	// per-cell configuration).
	KernelFast
	// KernelParallel is KernelFast plus the deterministic parallel-within-
	// round stepper on shapes that support one (currently the ring): node
	// ranges shard across GOMAXPROCS goroutines with results bit-identical
	// to the serial kernel at every shard count. Shapes without a parallel
	// stepper run the serial kernel; unsupported topologies the generic
	// engine — the same silent degradation as KernelFast.
	KernelParallel
)

func (m KernelMode) String() string {
	switch m {
	case KernelGeneric:
		return "generic"
	case KernelFast:
		return "fast"
	case KernelParallel:
		return "parallel"
	default:
		return "auto"
	}
}

// System is a running multi-agent rotor-router. It is not safe for
// concurrent use; experiments run independent Systems per goroutine.
type System struct {
	g *graph.Graph
	// g0 is the construction-time topology. Rewire (perturbation scenarios)
	// swaps g; Reset restores g0 along with the initial configuration.
	g0 *graph.Graph
	n  int
	k  int64

	// st holds the flat configuration state shared with the stepping
	// kernels; see kernel.State.
	st kernel.State

	// fast is the specialized kernel selected for this system (nil when
	// only the generic engine applies). Fully-active and held rounds run on
	// it; StepHeld(nil) takes the generic path. parShards fixes the shard
	// count under KernelParallel (0 = GOMAXPROCS at step time).
	fast      kernel.Stepper
	kmode     KernelMode
	parShards int
	// sparse is the degree-2 shape whose sparse round (sparse.go) runs
	// fully-active rounds when fast is nil; ShapeGeneral means none.
	sparse kernel.Shape

	ptr0 []int32 // initial pointers, for Reset
	ag0  []int64 // initial agent counts, for Reset

	// The occupied list is bookkeeping of the generic and sparse rounds:
	// the flat kernels do not maintain it, so it is rebuilt lazily
	// (occValid) when a round or an accessor next needs it.
	occupied []int  // nodes with agents[v] > 0
	inOcc    []bool // membership flags for occupied
	occValid bool

	// movers says where ForEachFlow finds the last round's movers:
	// srcNode/srcCnt after a generic or sparse round, st.Scratch (the
	// pre-round counts a kernel swapped out) minus the clamped held after
	// a kernel round. held is that kernel round's hold vector, nil when it
	// was fully active.
	movers moverSource
	held   []int64

	// Scratch buffers reused across rounds. cand holds the generic
	// round's candidates for the next occupied list, and the sparse
	// round's newly occupied nodes.
	srcNode []int
	srcCnt  []int64
	cand    []int

	// hashOn enables the configuration hash of cycle detection; hash is
	// the hash of the current configuration while it is on. The
	// occupied-list rounds and the mutations update it incrementally; the
	// flat kernels do not know it, so a kernel round is followed by one
	// O(n) rehash (afterKernel).
	hashOn bool
	hash   uint64

	// windowRounds counts the rounds run in interaction-free windows, so
	// that tests can assert the windows ran.
	windowRounds int64
}

// moverSource tells ForEachFlow where the last round left its movers.
type moverSource uint8

const (
	moversNone    moverSource = iota // no round since the view was emptied
	moversGeneric                    // srcNode/srcCnt
	moversKernel                     // st.Scratch minus the clamped held
)

// Option configures a System at construction time.
type Option func(*config) error

type config struct {
	positions []int
	counts    []int64
	pointers  []int
	hash      bool
	kmode     KernelMode
	parShards int
}

// WithAgentsAt places one agent on each listed node (repeats allowed:
// listing a node twice places two agents there).
func WithAgentsAt(positions ...int) Option {
	return func(c *config) error {
		c.positions = append([]int(nil), positions...)
		return nil
	}
}

// WithAgentCounts places counts[v] agents on node v; len(counts) must equal
// the number of nodes.
func WithAgentCounts(counts []int64) Option {
	return func(c *config) error {
		c.counts = append([]int64(nil), counts...)
		return nil
	}
}

// WithPointers sets the initial port pointers; len(pointers) must equal the
// number of nodes and pointers[v] must be a valid port of v. Initializers
// for the paper's adversarial arrangements live in init.go.
func WithPointers(pointers []int) Option {
	return func(c *config) error {
		c.pointers = append([]int(nil), pointers...)
		return nil
	}
}

// WithConfigHash enables configuration hashing from round zero. Hashing
// costs two mixes per moved node in an occupied-list round and two per
// node in the O(n) rehash after a flat-kernel round, so it is off by
// default; FindLimitCycle and MeasureReturnTime enable it on demand (see
// EnableConfigHash), and ConfigHash self-enables on first call.
func WithConfigHash() Option {
	return func(c *config) error {
		c.hash = true
		return nil
	}
}

// WithKernelMode selects the stepping tier; the default is KernelAuto.
func WithKernelMode(m KernelMode) Option {
	return func(c *config) error {
		if m < KernelAuto || m > KernelParallel {
			return fmt.Errorf("core: invalid kernel mode %d", int(m))
		}
		c.kmode = m
		return nil
	}
}

// WithParallelShards fixes the shard count of the KernelParallel stepper
// instead of deriving it from GOMAXPROCS at step time. Results are
// bit-identical at every shard count; the knob exists for benchmarks and
// the differential tests that prove that claim. It has no effect in other
// kernel modes.
func WithParallelShards(shards int) Option {
	return func(c *config) error {
		if shards < 0 {
			return fmt.Errorf("core: negative shard count %d", shards)
		}
		c.parShards = shards
		return nil
	}
}

// NewSystem creates a rotor-router on g. At least one agent must be placed;
// pointers default to port 0 everywhere.
func NewSystem(g *graph.Graph, opts ...Option) (*System, error) {
	var c config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	n := g.NumNodes()

	s := &System{
		g:         g,
		g0:        g,
		n:         n,
		st:        kernel.NewState(n),
		kmode:     c.kmode,
		parShards: c.parShards,
		ptr0:      make([]int32, n),
		ag0:       make([]int64, n),
		inOcc:     make([]bool, n),
	}

	if c.pointers != nil {
		if len(c.pointers) != n {
			return nil, fmt.Errorf("core: %d pointers for %d nodes", len(c.pointers), n)
		}
		for v, p := range c.pointers {
			if p < 0 || p >= g.Degree(v) {
				return nil, fmt.Errorf("core: pointer %d invalid at node %d (degree %d)", p, v, g.Degree(v))
			}
			s.ptr0[v] = int32(p)
		}
	}

	switch {
	case c.positions != nil && c.counts != nil:
		return nil, errors.New("core: WithAgentsAt and WithAgentCounts are mutually exclusive")
	case c.positions != nil:
		for _, v := range c.positions {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("core: agent position %d out of range [0,%d)", v, n)
			}
			s.ag0[v]++
			s.k++
		}
	case c.counts != nil:
		if len(c.counts) != n {
			return nil, fmt.Errorf("core: %d agent counts for %d nodes", len(c.counts), n)
		}
		for v, cnt := range c.counts {
			if cnt < 0 {
				return nil, fmt.Errorf("core: negative agent count at node %d", v)
			}
			s.ag0[v] = cnt
			s.k += cnt
		}
	}
	if s.k == 0 {
		return nil, errors.New("core: no agents placed")
	}

	s.Reset()
	if c.hash {
		s.EnableConfigHash()
	}
	return s, nil
}

// reselectKernel re-evaluates the specialized-kernel choice for the current
// graph, agent count and mode. Called at construction and again whenever
// the topology or population changes (Rewire, AddAgents, RemoveAgents):
// fast paths re-specialize when the new shape has a kernel and fall back to
// the generic engine otherwise.
func (s *System) reselectKernel() {
	s.fast, s.sparse = nil, kernel.ShapeGeneral
	if s.kmode == KernelGeneric {
		return
	}
	force := s.kmode == KernelFast || s.kmode == KernelParallel
	s.fast, s.sparse = kernel.Select(s.g, s.k, force)
	if s.kmode == KernelParallel {
		// Parallelize returns a fresh stepper (it carries merge
		// scratch); shapes without a parallel tier keep the serial
		// kernel it was handed.
		s.fast = kernel.Parallelize(s.fast, s.parShards)
	}
}

// Graph returns the topology the system runs on.
func (s *System) Graph() *graph.Graph { return s.g }

// NumAgents returns k.
func (s *System) NumAgents() int64 { return s.k }

// Round returns the number of completed rounds.
func (s *System) Round() int64 { return s.st.Round }

// AgentsAt returns the number of agents currently at v.
func (s *System) AgentsAt(v int) int64 { return s.st.Agents[v] }

// AgentCountsView returns the live per-node agent-count array, indexed by
// node. It is a zero-copy view for flat read loops on hot paths (the
// schedule runner's hold-draw fill) where per-node AgentsAt calls would
// dominate. Callers must not mutate it, and must re-fetch it after any
// step: the fused kernels advance by buffer swap, so the slice goes stale
// each round.
func (s *System) AgentCountsView() []int64 { return s.st.Agents }

// HoldNodes returns the nodes whose held entries the next StepHeld reads:
// nil when the flat kernel's held tier runs the round, since it reads
// every node, and otherwise the occupied list that the generic loop
// walks. The schedule runner draws holds only at these nodes. The slice
// is the system's own; callers must not mutate it, and it is stale after
// the next step.
func (s *System) HoldNodes() []int {
	if s.fast != nil {
		return nil
	}
	s.ensureOccupied()
	return s.occupied
}

// Pointer returns the current port pointer of v.
func (s *System) Pointer(v int) int { return int(s.st.Ptr[v]) }

// KernelName reports the stepping tier fully-active rounds run on: "ring",
// "path" or "ring-parallel" for the flat kernels, "ring-sparse" or
// "path-sparse" for the sparse degree-2 round, "generic" otherwise.
func (s *System) KernelName() string {
	switch {
	case s.fast != nil:
		return s.fast.Name()
	case s.sparse != kernel.ShapeGeneral:
		return s.sparse.String() + "-sparse"
	}
	return "generic"
}

// Visits returns n_v(t): the initial agent count of v plus the number of
// arrivals at v during rounds [1, t], matching the paper's counters. The
// paper's exit counter follows by conservation: e_v(t) = Visits(v) −
// AgentsAt(v).
func (s *System) Visits(v int) int64 { return s.st.Visits[v] }

// Covered returns how many nodes have been covered so far.
func (s *System) Covered() int { return s.st.Covered }

// CoverRound returns the first round after which every node had been
// visited, or -1 if the graph is not yet covered.
func (s *System) CoverRound() int64 { return s.st.CoverRound }

// FullyActiveRounds returns how many completed rounds moved every agent
// (no holds) — the quantity τ in the slow-down lemma (Lemma 3).
func (s *System) FullyActiveRounds() int64 { return s.st.FullyActiveRounds }

// Positions returns the sorted multiset of agent positions.
func (s *System) Positions() []int {
	out := make([]int, 0, s.k)
	for v := 0; v < s.n; v++ {
		for i := int64(0); i < s.st.Agents[v]; i++ {
			out = append(out, v)
		}
	}
	return out
}

// ensureOccupied rebuilds the occupied list after specialized-kernel rounds
// (which track only the flat count array).
func (s *System) ensureOccupied() {
	if s.occValid {
		return
	}
	s.occupied = s.occupied[:0]
	for v := 0; v < s.n; v++ {
		occ := s.st.Agents[v] > 0
		s.inOcc[v] = occ
		if occ {
			s.occupied = append(s.occupied, v)
		}
	}
	s.occValid = true
}

// Occupied returns a copy of the list of nodes currently holding agents.
func (s *System) Occupied() []int {
	s.ensureOccupied()
	return append([]int(nil), s.occupied...)
}

// ForEachFlow calls f(v, port, agents) for every arc that agents traversed
// in the last completed round, with agents >= 1 the number that crossed
// it, each arc once and in no particular order. f must not mutate the
// system.
//
// Nothing is recorded while stepping: an arc's flow is a pure function of
// its source's movers, pointer after the round and degree, and every tier
// leaves the movers behind. A read costs O(arcs moved) after a generic
// round and O(n) after a kernel round. The view is empty before the first
// round and after Reset, Rewire and SetPointers (which move the pointers
// the flows derive from), and starts empty in a Clone; AddAgents,
// RemoveAgents and ResetCoverage leave it intact.
func (s *System) ForEachFlow(f func(v, port int, agents int64)) {
	g, ptr := s.g, s.st.Ptr
	switch s.movers {
	case moversGeneric:
		for i, v := range s.srcNode {
			if m := s.srcCnt[i]; m > 0 {
				emitFlows(v, m, g.Degree(v), int(ptr[v]), f)
			}
		}
	case moversKernel:
		for v, m := range s.st.Scratch {
			if s.held != nil {
				m -= min(max(s.held[v], 0), m)
			}
			if m > 0 {
				emitFlows(v, m, g.Degree(v), int(ptr[v]), f)
			}
		}
	}
}

// emitFlows replays the port split of the m >= 1 agents that left v, of
// degree d and pointer ptr after the round, exactly as the generic move
// loop sent them: from the pointer the round started at, the first m mod d
// ports carried ceil(m/d) agents and, when m >= d, the rest floor(m/d).
func emitFlows(v int, m int64, d, ptr int, f func(v, port int, agents int64)) {
	q, r, n := int64(0), int(m), int(m) // fewer movers than ports: one each
	if m >= int64(d) {
		q, r, n = m/int64(d), int(m%int64(d)), d
	}
	port := ptr - r // the round started at (ptr - m) mod d
	if port < 0 {
		port += d
	}
	for j := 0; j < n; j++ {
		if j < r {
			f(v, port, q+1)
		} else {
			f(v, port, q)
		}
		if port++; port == d {
			port = 0
		}
	}
}

// Step runs one synchronous round with every agent active.
func (s *System) Step() {
	switch {
	case s.fast != nil:
		s.fast.Step(&s.st)
		s.afterKernel(nil)
	case s.sparse != kernel.ShapeGeneral:
		s.stepSparse()
	default:
		s.StepHeld(nil)
	}
}

// Run executes the given number of rounds, exactly as that many Steps. On
// the sparse ring and path tier it moves well-separated lone agents through
// interaction-free windows (sparse.go) instead of round by round.
func (s *System) Run(rounds int64) {
	s.advance(s.st.Round+rounds, false)
}

// RunUntilCovered steps until every node has been visited, and returns the
// cover time C (the first round t with all nodes covered). If maxRounds
// elapse first it returns the rounds spent wrapped in ErrNotCovered. Like
// Run it takes interaction-free windows on the sparse tier, and a window
// stops at the cover round.
func (s *System) RunUntilCovered(maxRounds int64) (int64, error) {
	s.advance(maxRounds, true)
	if s.st.Covered < s.n {
		return s.st.Round, fmt.Errorf("%w after %d rounds (%d/%d nodes)",
			ErrNotCovered, s.st.Round, s.st.Covered, s.n)
	}
	return s.st.CoverRound, nil
}

// advance steps until round end or, when cover is set, until every node
// has been visited, through interaction-free windows wherever one opens.
func (s *System) advance(end int64, cover bool) {
	windows := s.windowsOn()
	for s.st.Round < end && !(cover && s.st.Covered == s.n) {
		if windows && s.window(end, cover) {
			continue
		}
		s.Step()
	}
}

// coverAt records a node's first visit, in round.
func (s *System) coverAt(round int64) {
	s.st.Covered++
	if s.st.Covered == s.n {
		s.st.CoverRound = round
	}
}

// StepHeld runs one round of a delayed deployment D (§2.1): held[v] agents
// at node v skip their move this round (clamped to the number present). A
// nil held slice means every agent is active. Held agents do not advance
// the pointer — exactly the paper's D(v,t) semantics.
//
// Held rounds run on the flat kernel's held tier (kernel.Stepper.StepHeld)
// when the system has a flat kernel, bit-identically to the generic engine
// below, which everything else runs on — sparse ring and path populations
// included. StepHeld(nil) on a system with a specialized kernel or a
// sparse round is equivalent to Step but deliberately takes the generic
// path — it is the reference arm of the differential tests.
//
// The generic path reads held only at the occupied nodes, which HoldNodes
// lists; the flat kernels read every entry. A kernel round keeps a
// reference to held for ForEachFlow, so a caller that reads the round's
// flows must leave held unchanged until then.
func (s *System) StepHeld(held []int64) {
	if held != nil && s.fast != nil {
		s.fast.StepHeld(&s.st, held)
		s.afterKernel(held)
		return
	}
	s.ensureOccupied()
	s.movers, s.held = moversGeneric, nil

	// The occupied list is exactly the nodes with agents, before the round
	// and after it, so the incremental hash drops each source's count at
	// the snapshot and adds each node's new count as the rebuild appends it.
	hashOn := s.hashOn

	// Snapshot sources: moves are based on start-of-round positions.
	s.srcNode = s.srcNode[:0]
	s.srcCnt = s.srcCnt[:0]
	anyHeld := false
	for _, v := range s.occupied {
		c := s.st.Agents[v]
		var h int64
		if held != nil && held[v] > 0 {
			h = held[v]
			if h > c {
				h = c
			}
		}
		if h > 0 {
			anyHeld = true
		}
		s.srcNode = append(s.srcNode, v)
		s.srcCnt = append(s.srcCnt, c-h)
		if hashOn {
			s.hash -= hashCnt(v, c)
		}
		s.st.Agents[v] = h // held agents stay; arrivals accumulate below
	}

	// Candidates for the new occupied list: all old sources (which may
	// retain held agents or receive arrivals) plus all destinations.
	s.cand = s.cand[:0]
	s.cand = append(s.cand, s.srcNode...)
	for _, v := range s.srcNode {
		s.inOcc[v] = false
	}

	for i, v := range s.srcNode {
		m := s.srcCnt[i]
		if m == 0 {
			continue
		}
		d := int32(s.g.Degree(v))
		p := s.st.Ptr[v]
		// The m departing agents use ports p, p+1, ..., p+m-1 (mod d):
		// port offset j carries ceil((m-j)/d) agents, which is q+1 for
		// the first r ports and q for the rest, with q, r = m/d, m mod d.
		// With fewer movers than ports, each of the first m carries one.
		q, r, lim := int64(0), int32(m), int32(m)
		if m >= int64(d) {
			q, r, lim = m/int64(d), int32(m%int64(d)), d
		}
		port := p
		for j := int32(0); j < lim; j++ {
			cnt := q
			if j < r {
				cnt++
			}
			dest := s.g.Neighbor(v, int(port))
			if s.st.Agents[dest] == 0 {
				s.cand = append(s.cand, dest)
			}
			s.st.Agents[dest] += cnt
			if s.st.Visits[dest] == 0 {
				s.coverAt(s.st.Round + 1)
			}
			s.st.Visits[dest] += cnt
			if port++; port == d {
				port = 0
			}
		}
		newPtr := p + r // (p + m) mod d, as r ≡ m and p + r < 2d
		if newPtr >= d {
			newPtr -= d
		}
		if hashOn {
			s.hash += hashPtr(v, newPtr) - hashPtr(v, s.st.Ptr[v])
		}
		s.st.Ptr[v] = newPtr
	}

	// Rebuild the occupied list from candidates, in candidate order:
	// sources first, then destinations in discovery order.
	s.occupied = s.occupied[:0]
	for _, v := range s.cand {
		if c := s.st.Agents[v]; c > 0 && !s.inOcc[v] {
			s.inOcc[v] = true
			s.occupied = append(s.occupied, v)
			if hashOn {
				s.hash += hashCnt(v, c)
			}
		}
	}

	s.st.Round++
	if !anyHeld {
		s.st.FullyActiveRounds++
	}
}

// afterKernel records a flat-kernel round, which touches only the flat
// arrays: the occupied list goes stale, ForEachFlow reads the movers from
// the counts the kernel swapped out (minus held, nil when the round was
// fully active), and the hash is recomputed from scratch, an O(n) pass
// like the round itself.
func (s *System) afterKernel(held []int64) {
	s.occValid = false
	s.movers, s.held = moversKernel, held
	s.rehash()
}

// The configuration hash is a sum mod 2^64 of one contribution per node
// pointer and one per nonzero node count, so a round or mutation updates
// it by the deltas of the nodes it touches.

// hashPtr is the hash contribution of pointer state (v, p).
func hashPtr(v int, p int32) uint64 {
	return xrand.Mix64(uint64(v)<<32 | uint64(uint32(p)) | 1<<63)
}

// hashCnt is the hash contribution of agent-count state (v, c); zero counts
// contribute nothing so that untouched nodes need no bookkeeping.
func hashCnt(v int, c int64) uint64 {
	if c == 0 {
		return 0
	}
	return xrand.Mix64(uint64(v)*0x9e3779b97f4a7c15 + uint64(c))
}

// fullHash recomputes the configuration hash from scratch.
func (s *System) fullHash() uint64 {
	agents := s.st.Agents[:len(s.st.Ptr)]
	var h uint64
	for v, p := range s.st.Ptr {
		h += hashPtr(v, p) + hashCnt(v, agents[v])
	}
	return h
}

// rehash recomputes the hash when hashing is on.
func (s *System) rehash() {
	if s.hashOn {
		s.hash = s.fullHash()
	}
}

// EnableConfigHash switches on configuration hashing (one full O(n) hash
// now, then two mixes per moved node per occupied-list round and one O(n)
// rehash per flat-kernel round). It is a no-op when hashing is already on.
// Cycle detection calls it before taking snapshots so every clone inherits
// the enabled hash.
func (s *System) EnableConfigHash() {
	if s.hashOn {
		return
	}
	s.hashOn = true
	s.hash = s.fullHash()
}

// ConfigHash returns the maintained hash of the current configuration
// (pointers and agent positions; visit counters excluded), enabling hash
// maintenance on first use (WithConfigHash enables it from round zero
// instead). Equal configurations have equal hashes; unequal ones collide
// with probability about 2^-64, so cycle detection confirms with
// StateEqual.
func (s *System) ConfigHash() uint64 {
	s.EnableConfigHash()
	return s.hash
}

// StateEqual reports whether the configurations (pointers and agent
// multisets) of s and o are identical. Both systems must share a topology.
func (s *System) StateEqual(o *System) bool {
	if s.n != o.n {
		return false
	}
	for v := 0; v < s.n; v++ {
		if s.st.Ptr[v] != o.st.Ptr[v] || s.st.Agents[v] != o.st.Agents[v] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the system sharing only the immutable graph
// and the (stateless) stepping kernel. The copy's flow view starts empty.
func (s *System) Clone() *System {
	c := &System{
		g:         s.g,
		g0:        s.g0,
		n:         s.n,
		k:         s.k,
		st:        s.st.Clone(),
		fast:      s.fast,
		kmode:     s.kmode,
		parShards: s.parShards,
		sparse:    s.sparse,
		ptr0:      append([]int32(nil), s.ptr0...),
		ag0:       append([]int64(nil), s.ag0...),
		occupied:  append([]int(nil), s.occupied...),
		inOcc:     append([]bool(nil), s.inOcc...),
		occValid:  s.occValid,
		hashOn:    s.hashOn,
		hash:      s.hash,
	}
	// A parallel stepper carries per-shard merge scratch that must not be
	// shared between systems, so parallel clones re-select to get their own
	// instance.
	if s.kmode == KernelParallel {
		c.reselectKernel()
	}
	return c
}

// Reset restores the initial configuration (topology, agents, pointers) and
// clears all counters, allowing a fresh run without reallocation. A system
// whose graph was swapped by Rewire returns to its construction-time
// topology, and a population changed by AddAgents/RemoveAgents returns to
// its initial size.
func (s *System) Reset() {
	s.g = s.g0
	s.movers = moversNone
	s.k = 0
	for _, c := range s.ag0 {
		s.k += c
	}
	copy(s.st.Ptr, s.ptr0)
	copy(s.st.Agents, s.ag0)
	s.reselectKernel()
	s.occupied = s.occupied[:0]
	s.st.Covered = 0
	s.st.CoverRound = -1
	s.st.Round = 0
	s.st.FullyActiveRounds = 0
	for v, a := range s.st.Agents {
		s.st.Visits[v] = a // n_v(0)
		s.inOcc[v] = a > 0
		if a > 0 {
			s.occupied = append(s.occupied, v)
			s.st.Covered++
		}
	}
	s.occValid = true
	if s.st.Covered == s.n {
		s.st.CoverRound = 0
	}
	s.rehash()
}
