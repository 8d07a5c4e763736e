// Package kernel is the tiered stepping subsystem of the rotor-router
// engine: specialized round kernels for the topologies the paper's headline
// results live on (the ring and the path, both degree ≤ 2), selected
// automatically by core.NewSystem and falling back to the generic
// port-labeled-graph machinery everywhere else. Select makes the choice by
// shape and density: the flat kernels here for k ≥ n/DenseFraction, and
// below that threshold core's sparse degree-2 round, which shares the
// generic engine's occupied list and so lives next to it in core.
//
// The package owns two things:
//
//   - State: the flat configuration arrays of a running system (pointers,
//     agent counts, visit/exit counters, coverage bookkeeping). core.System
//     embeds a State so that a kernel can advance a round without any
//     indirection through the graph adjacency structure or the generic
//     engine's occupied/candidate lists.
//
//   - Stepper: the interface a specialized kernel implements. A Stepper
//     advances exactly one round, fully active (Step) or with held agents
//     (StepHeld, held.go), and must be bit-identical to the generic engine
//     on the configuration state it shares: pointers, agent counts, visits,
//     exits, coverage, round counters, and — when State.HashOn is set —
//     the incremental configuration hash. The differential tests in core
//     enforce this configuration-for-configuration.
//
// Tier 1 (this package) is the ring/path rotor kernel: a branch-light loop
// over the flat count arrays with direct (v±1) mod n addressing and
// closed-form port splitting, plus the fused held-round variants in
// held.go. Tier 2 is the opt-in configuration hash (State.HashOn, enabled
// by core.WithConfigHash); kernels skip all hash work when it is off.
// Tier 3 — counts-based binomial stepping for the random-walk baseline —
// lives in internal/randwalk and shares this package's shape detection.
// Orthogonally, Parallelize (parallel.go) shards a flat ring round across
// goroutines with bit-identical results at every shard count.
package kernel

import (
	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// State is the flat rotor-router configuration a Stepper advances. It is
// owned by core.System, which exposes its own accessors over these arrays;
// kernels mutate them directly. All slices have length N except LastVisited
// and Scratch, which are kernel-managed.
type State struct {
	// N is the number of nodes.
	N int
	// Ptr holds the current port pointer π_v of every node.
	Ptr []int32
	// Agents holds the number of agents currently at every node. Kernels
	// may swap this slice with Scratch; callers must re-read it after a
	// Step rather than retaining the backing array.
	Agents []int64
	// Visits holds n_v(t): initial agents at v plus arrivals in [1, t].
	Visits []int64
	// Exits holds e_v(t): departures from v in [1, t].
	Exits []int64

	// CoveredAt records the round of first visit per node (-1 uncovered).
	CoveredAt []int64
	// Covered is the number of covered nodes; CoverRound the first round
	// with Covered == N (-1 before that).
	Covered    int
	CoverRound int64
	// Round counts completed rounds; FullyActiveRounds those with no agent
	// held (the paper's τ).
	Round             int64
	FullyActiveRounds int64

	// VisitStamp marks, per node, the last round with at least one arrival;
	// LastVisited lists the nodes stamped in the last completed round.
	VisitStamp  []int64
	LastVisited []int

	// HashOn enables incremental configuration hashing (tier 2). When off —
	// the default — neither the generic engine nor the kernels spend any
	// time on hash bookkeeping. Hash is only meaningful while HashOn.
	HashOn bool
	Hash   uint64

	// Scratch is the kernels' double buffer for next-round agent counts
	// and Split their per-node departing-split scratch. Both are allocated
	// lazily on first specialized step. Active is the parallel held
	// stepper's per-node mover scratch (the serial kernels keep movers in
	// registers), allocated lazily on first parallel held round.
	Scratch []int64
	Split   []int64
	Active  []int64
}

// NewState allocates a zeroed State for n nodes (coverage fields are set by
// the owner during placement).
func NewState(n int) State {
	return State{
		N:          n,
		Ptr:        make([]int32, n),
		Agents:     make([]int64, n),
		Visits:     make([]int64, n),
		Exits:      make([]int64, n),
		CoveredAt:  make([]int64, n),
		CoverRound: -1,
		VisitStamp: make([]int64, n),
	}
}

// Clone returns a deep copy of the state. The scratch buffers are not
// carried over; the copy reallocates its own on first specialized step.
func (st *State) Clone() State {
	c := *st
	c.Ptr = append([]int32(nil), st.Ptr...)
	c.Agents = append([]int64(nil), st.Agents...)
	c.Visits = append([]int64(nil), st.Visits...)
	c.Exits = append([]int64(nil), st.Exits...)
	c.CoveredAt = append([]int64(nil), st.CoveredAt...)
	c.VisitStamp = append([]int64(nil), st.VisitStamp...)
	c.LastVisited = append([]int(nil), st.LastVisited...)
	c.Scratch = nil
	c.Split = nil
	c.Active = nil
	return c
}

// Stepper advances one synchronous round over a State. A nil Stepper means
// "generic only". The serial implementations are stateless (all mutable
// state lives in the State), so one Stepper value may serve many systems;
// the parallel stepper returned by Parallelize carries merge scratch and
// must be per-system. A single State must not be stepped from two
// goroutines at once.
type Stepper interface {
	// Name identifies the kernel ("ring", "path") for logs and benchmarks.
	Name() string
	// Step advances one round in which every agent is active. The caller
	// guarantees the State was built for a graph this kernel supports.
	Step(st *State)
	// StepHeld advances one delayed-deployment round (held.go) in which
	// held[v] agents at node v skip their move and leave their node's
	// pointer share untouched. held must have length N; entries are
	// clamped to [0, agents[v]], so stale values at unoccupied nodes are
	// ignored.
	StepHeld(st *State, held []int64)
}

// Shape classifies a topology for kernel selection.
type Shape int

// Shapes.
const (
	// ShapeGeneral is any graph without a specialized kernel.
	ShapeGeneral Shape = iota
	// ShapeRing is the cycle with the canonical port layout (port 0 → v+1,
	// port 1 → v-1, both mod n) produced by graph.Ring.
	ShapeRing
	// ShapePath is the path 0–1–…–n-1 with the port layout produced by
	// graph.Path: endpoints have the single port 0, interior nodes have
	// port 0 → v-1 and port 1 → v+1.
	ShapePath
)

func (s Shape) String() string {
	switch s {
	case ShapeRing:
		return "ring"
	case ShapePath:
		return "path"
	default:
		return "general"
	}
}

// DetectShape classifies g structurally (node labels, degrees and port
// layout), not by name, so user-built graphs qualify too. O(n).
func DetectShape(g *graph.Graph) Shape {
	n := g.NumNodes()
	if isRingShape(g, n) {
		return ShapeRing
	}
	if isPathShape(g, n) {
		return ShapePath
	}
	return ShapeGeneral
}

func isRingShape(g *graph.Graph, n int) bool {
	if n < 3 || g.NumEdges() != n {
		return false
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) != 2 ||
			g.Neighbor(v, graph.RingCW) != (v+1)%n ||
			g.Neighbor(v, graph.RingCCW) != (v-1+n)%n {
			return false
		}
	}
	return true
}

func isPathShape(g *graph.Graph, n int) bool {
	if n < 2 || g.NumEdges() != n-1 {
		return false
	}
	if g.Degree(0) != 1 || g.Neighbor(0, 0) != 1 ||
		g.Degree(n-1) != 1 || g.Neighbor(n-1, 0) != n-2 {
		return false
	}
	for v := 1; v < n-1; v++ {
		if g.Degree(v) != 2 || g.Neighbor(v, 0) != v-1 || g.Neighbor(v, 1) != v+1 {
			return false
		}
	}
	return true
}

// DenseFraction is the density threshold of automatic kernel selection: the
// flat kernels scan all n nodes per round, so they only pay off against an
// occupied-list round when agents number at least n/DenseFraction. Below it
// the owner runs its sparse degree-2 round (core's ring-sparse and
// path-sparse tiers), which walks only the occupied nodes.
//
// Measured on a 2-vCPU x86-64 host from random placements and pointers, as
// the median of seven paired runs, the sparse round's throughput over the
// flat kernel's at k agents:
//
//	            k = n/8   3n/16   n/4    5n/16   3n/8
//	Ring(512)   3.07      1.71    1.00   0.97    0.82
//	Ring(4096)            1.79    1.26   0.97
//	Path(512)   2.01      1.38    0.88   0.87    0.60
//	Path(4096)            1.47    1.04   0.87
//
// Both shapes cross near n/4, the ring a little above and the path a
// little below; hashed rounds cross a little above it (Ring(128) 1.31 and
// Path(128) 1.11 at n/4, 1.12 and 0.97 at 5n/16). One constant serves
// both shapes.
const DenseFraction = 4

// Select picks the stepping tier for k agents on g and detects g's shape
// once for both answers. On the canonical ring or path it returns the flat
// kernel when k ≥ n/DenseFraction, or always when force is set. Otherwise
// the Stepper is nil and the returned shape tells the owner which sparse
// degree-2 round applies; ShapeGeneral means the generic engine.
func Select(g *graph.Graph, k int64, force bool) (Stepper, Shape) {
	shape := DetectShape(g)
	if shape == ShapeGeneral || (!force && k < int64(g.NumNodes()/DenseFraction)) {
		return nil, shape
	}
	if shape == ShapeRing {
		return ringStepper{}, shape
	}
	return pathStepper{}, shape
}

// HashPtr is the hash contribution of pointer state (v, p).
func HashPtr(v int, p int32) uint64 {
	return xrand.Mix64(uint64(v)<<32 | uint64(uint32(p)) | 1<<63)
}

// HashCnt is the hash contribution of agent-count state (v, c); zero counts
// contribute nothing so that untouched nodes need no bookkeeping.
func HashCnt(v int, c int64) uint64 {
	if c == 0 {
		return 0
	}
	return xrand.Mix64(uint64(v)*0x9e3779b97f4a7c15 + uint64(c))
}

// FullHash recomputes the configuration hash of (ptr, agents) from scratch.
func FullHash(ptr []int32, agents []int64) uint64 {
	var h uint64
	for v := range ptr {
		h += HashPtr(v, ptr[v])
		h += HashCnt(v, agents[v])
	}
	return h
}
