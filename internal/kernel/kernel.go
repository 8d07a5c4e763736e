// Package kernel is the tiered stepping subsystem of the rotor-router
// engine: specialized round kernels for the topologies the paper's headline
// results live on (the ring and the path, both degree ≤ 2), selected
// automatically by core.NewSystem and falling back to the generic
// port-labeled-graph machinery everywhere else. Select makes the choice by
// shape and density, separately for fully-active and held rounds: the
// packed round here for fully-active rounds at k ≥ n/PackedFraction and
// for held rounds at k ≥ n/DenseFraction, and below those thresholds
// core's sparse degree-2 round and generic loop, which share the generic
// engine's occupied list and so live next to it in core.
//
// The package owns two things:
//
//   - State: the configuration of a running system, as flat arrays
//     (pointers, agent counts, visit counters, coverage bookkeeping) and,
//     once a kernel round has run on it, a packed bit-sliced copy
//     (packed.go). core.System embeds a State so that a kernel can advance
//     a round without any indirection through the graph adjacency
//     structure or the generic engine's occupied/candidate lists. The flat
//     arrays are a lazily materialized view of the packed state: the owner
//     calls MaterializeConfig before reading counts or pointers,
//     Materialize before reading visits, which packed rounds do not count
//     but a read derives (packed.go), and Unpack before writing them.
//
//   - Stepper: the interface a specialized kernel implements. A Stepper
//     advances fully-active rounds (Step, Run) or one round with held
//     agents (StepHeld), and must be bit-identical to the generic engine
//     on the configuration state it shares: pointers, agent counts,
//     visits, coverage and round counters. The differential tests in core
//     enforce this configuration-for-configuration.
//
// Tier 1 (this package) is the ring/path rotor kernel: the bit-sliced
// round of packed.go, 64 nodes per machine word, fully active or held.
// Tier 2, the opt-in configuration hash of limit-cycle detection, belongs
// to core alone: the kernels never hash, core marks its hash stale after a
// kernel round and recomputes it in one O(n) pass when it is next read,
// and the cycle search compares packed states word by word (PackedEqual).
// Tier 3 — counts-based binomial stepping for the random-walk baseline —
// lives in internal/randwalk and shares this package's shape detection.
// Orthogonally, Parallelize (parallel.go) shards a fully-active flat ring
// round across goroutines with bit-identical results at every shard count.
package kernel

import "rotorring/internal/graph"

// State is the rotor-router configuration a Stepper advances. It is owned
// by core.System, which exposes its own accessors over these arrays;
// kernels mutate them directly. Ptr, Agents and Visits have length N; the
// scratch buffers are kernel-managed. After a packed round the flat arrays
// are stale: MaterializeConfig brings Ptr and Agents up to date,
// Materialize Visits too, and the owner must Unpack before writing them
// (or Drop, when it overwrites them all). A round's movements are not
// stored: the owner derives them from the movers a round leaves behind,
// its pre-round counts in Scratch after a flat round and the counts less
// the held agents in the packed state after a packed one (ForEachMover).
// The paper's exit counter e_v(t) is not stored either; by conservation
// it is Visits[v] − Agents[v]. Nor is the
// configuration hash: core keeps it. The scalars below are current after
// every round.
type State struct {
	// N is the number of nodes.
	N int
	// Ptr holds the current port pointer π_v of every node.
	Ptr []int32
	// Agents holds the number of agents currently at every node. Kernels
	// may swap this slice with Scratch; callers must re-read it after a
	// Step rather than retaining the backing array.
	Agents []int64
	// Visits holds n_v(t): initial agents at v plus arrivals in [1, t]. A
	// node is covered once its count is nonzero. Packed rounds leave it at
	// their base's visits until Materialize derives the rest.
	Visits []int64

	// Covered is the number of covered nodes; CoverRound the first round
	// with Covered == N (-1 before that).
	Covered    int
	CoverRound int64
	// Round counts completed rounds; FullyActiveRounds those with no agent
	// held (the paper's τ).
	Round             int64
	FullyActiveRounds int64

	// Scratch is the flat round's double buffer for next-round agent
	// counts and Split its per-node departing-split scratch. Both are
	// allocated lazily on first flat step.
	Scratch []int64
	Split   []int64

	// pk is the packed state, allocated on the first packed round; pkOn
	// says it holds the configuration, and stale that the flat arrays lag
	// behind it.
	pk    *packed
	pkOn  bool
	stale bool
}

// NewState allocates a zeroed State for n nodes (coverage fields are set by
// the owner during placement).
func NewState(n int) State {
	return State{
		N:          n,
		Ptr:        make([]int32, n),
		Agents:     make([]int64, n),
		Visits:     make([]int64, n),
		CoverRound: -1,
	}
}

// Clone returns a deep copy of the state, the packed state included. The
// scratch buffers are not carried over; the copy reallocates its own on
// first specialized step.
func (st *State) Clone() State {
	c := *st
	c.Ptr = append([]int32(nil), st.Ptr...)
	c.Agents = append([]int64(nil), st.Agents...)
	c.Visits = append([]int64(nil), st.Visits...)
	c.Scratch = nil
	c.Split = nil
	if st.Packed() {
		c.pk = st.pk.clone()
	} else {
		c.pk, c.pkOn, c.stale = nil, false, false
	}
	return c
}

// Stepper advances synchronous rounds over a State. A nil Stepper means
// "generic only". The serial implementations are stateless (all mutable
// state lives in the State), so one Stepper value may serve many systems;
// the parallel stepper returned by Parallelize carries merge scratch and
// must be per-system. A single State must not be stepped from two
// goroutines at once. Steppers never hash: a hashing owner marks its hash
// stale after each kernel round.
type Stepper interface {
	// Name identifies the kernel ("ring", "path") for logs and benchmarks.
	Name() string
	// Step advances one round in which every agent is active. The caller
	// guarantees the State was built for a graph this kernel supports.
	Step(st *State)
	// Run advances fully-active rounds, exactly as that many Steps, until
	// round end or, when cover is set, until every node has been visited.
	Run(st *State, end int64, cover bool)
	// StepHeld advances one delayed-deployment round in which hold(v, c)
	// of the c agents at each occupied node v, clamped to [0, c], skip
	// their move and leave their node's pointer untouched. It asks hold
	// once per occupied node, in node order, and runs on the packed state,
	// packing the flat arrays first when they hold the configuration.
	StepHeld(st *State, hold func(v int, c int64) int64)
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

// DenseFraction is the density threshold of automatic kernel selection
// for held rounds: they run the packed held round when agents number at
// least n/DenseFraction, and the generic occupied-list loop below it.
//
// Measured on a 2-vCPU x86-64 host from random placements and pointers,
// with Binomial(c, 1/4) holds, after n held warmup rounds, as the median
// of seven paired runs of 6·10^6/n held rounds: the packed held round's
// throughput over the generic loop's at k agents:
//
//	            k = n/32  n/16   n/8    3n/16  n/4    5n/16  3n/8
//	Ring(128)   0.92      1.31   1.38   1.42   1.54   1.56   1.53
//	Ring(512)   1.06      1.54   1.33   1.61   1.67   1.52   1.93
//	Ring(4096)  1.02      1.32   1.31   1.56   1.57   1.66   1.74
//	Path(128)   0.94      1.32   1.45   1.56   1.53   1.61   1.32
//	Path(512)   1.11      1.36   1.27   1.67   1.44   1.54   1.64
//	Path(4096)  1.07      1.29   1.29   1.19   1.42   1.96   2.19
//
// The two cross near n/32, and the packed held round leads from n/16 on
// every size measured. The constant stays at n/4, where the flat held
// kernels the packed held round replaced crossed, until a lower one is
// measured end to end (ROADMAP). Rows do not depend on it, except X7's:
// its delayed systems (k = n/32 at full scale, about n/19 at quick) draw
// random numbers in Occupied() order, which a kernel round does not keep,
// so a threshold at n/19 or below would change its output. Held rounds
// at n/4 ≤ k < 5n/16 with hashing on may be faster on the generic loop
// at n = 128 (ROADMAP).
const DenseFraction = 4

// PackedFraction is the density threshold of automatic kernel selection
// for fully-active rounds: the packed round (packed.go) costs O(n/64·planes)
// a round against the sparse round's O(occupied), so it runs when agents
// number at least n/PackedFraction, except where the owner's
// interaction-free windows apply (n ≥ 8k², marked w below).
//
// Measured on a 2-vCPU x86-64 host as runs of 3·10^6·8/n rounds after n
// rounds of warmup, from random placements and from all agents on node 0,
// with random pointers, each the median of seven paired runs: the packed
// round's throughput over the sparse round's (with its windows where they
// open) at k agents:
//
//	                   k = n/64  n/48   n/32   n/24   n/16
//	Ring(128)   random     0.54w  0.54w  1.10w  2.39   3.25
//	Ring(512)   random     0.75w  2.04   3.19   4.06   5.42
//	Ring(2048)  random     1.66   2.51   3.47   3.71   4.43
//	Ring(8192)  random     1.65   2.27   2.98   3.21   4.24
//	Ring(128)   single     0.54w  0.44w  1.28w  2.34   3.10
//	Ring(512)   single     0.82w  1.98   3.06   3.80   4.65
//	Ring(2048)  single     1.23   1.34   1.80   2.34   3.38
//	Ring(8192)  single     0.86   1.17   1.42   1.58   1.65
//	Path(128)   random     0.38w  0.39w  0.99w  2.34   3.19
//	Path(512)   random     0.59w  1.89   3.26   4.02   5.05
//	Path(2048)  random     1.56   2.31   3.08   3.56   4.35
//	Path(8192)  random     1.70   2.18   2.28   2.72   3.88
//	Path(128)   single     0.39w  0.40w  0.99w  1.90   3.16
//	Path(512)   single     0.96w  1.78   2.69   3.08   3.26
//	Path(2048)  single     0.96   1.18   1.68   2.10   2.11
//	Path(8192)  single     0.65   0.75   0.72   0.75   0.47
//
// Outside the windows' band every shape and start crosses between n/64
// and n/48, except a pile on a long path's endpoint: it spreads over few
// nodes for thousands of rounds, which the sparse round walks and the
// packed round does not, and its counts need many planes. The threshold
// stays at n/32, where it crossed before rounds stopped counting visits:
// no cell of the benchmark workloads lies in n/48 ≤ k < n/32 outside the
// windows' band, which is empty below n = 289.
const PackedFraction = 32

// Select picks the stepping tiers for k agents on g and detects g's shape
// once for all answers. On the canonical ring or path it returns the
// kernel for fully-active rounds when k ≥ n/PackedFraction, and held is
// set when its held rounds also take the kernel, at k ≥ n/DenseFraction;
// force selects both whatever k. Otherwise the Stepper is nil and the
// returned shape tells the owner which sparse degree-2 round applies;
// ShapeGeneral means the generic engine.
func Select(g *graph.Graph, k int64, force bool) (s Stepper, held bool, shape Shape) {
	shape = DetectShape(g)
	n := int64(g.NumNodes())
	if shape == ShapeGeneral || (!force && k < n/PackedFraction) {
		return nil, false, shape
	}
	held = force || k >= n/DenseFraction
	if shape == ShapeRing {
		return ringStepper{}, held, shape
	}
	return pathStepper{}, held, shape
}
