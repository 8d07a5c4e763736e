package graph

import (
	"fmt"

	"rotorring/internal/xrand"
)

// Ring port conventions. On the ring there is only one cyclic permutation of
// the two ports, so only the pointer placement matters (paper §1.3); the
// fixed convention below lets ring-specific code (domains, visualization)
// talk about directions.
const (
	// RingCW is the port leading from v to (v+1) mod n ("clockwise").
	RingCW = 0
	// RingCCW is the port leading from v to (v-1+n) mod n ("anticlockwise").
	RingCCW = 1
)

// Ring returns the cycle C_n for n >= 3, the paper's main topology.
// Port 0 of every node is the clockwise arc and port 1 the anticlockwise
// arc (see RingCW, RingCCW).
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Ring(%d): need n >= 3", n))
	}
	adj := make([][]Arc, n)
	for v := 0; v < n; v++ {
		cw := (v + 1) % n
		ccw := (v - 1 + n) % n
		adj[v] = []Arc{
			RingCW:  {To: cw, RevPort: RingCCW},
			RingCCW: {To: ccw, RevPort: RingCW},
		}
	}
	g := &Graph{adj: adj, m: n, name: fmt.Sprintf("ring(%d)", n)}
	g.freezeArcIDs()
	return g
}

// Path returns the path P_n on n >= 2 nodes, 0 - 1 - ... - n-1. Theorem 1's
// analysis reduces the ring with all agents on one node to a path; the
// delayed-deployment experiments run on paths directly.
func Path(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Path(%d): need n >= 2", n))
	}
	b := NewBuilder(n, fmt.Sprintf("path(%d)", n))
	for v := 0; v+1 < n; v++ {
		if err := b.AddEdge(v, v+1); err != nil {
			panic(err)
		}
	}
	return b.mustBuild()
}

// Grid2D returns the w x h two-dimensional grid (no wraparound). Node (x,y)
// has index y*w + x. The paper's introduction contrasts rotor-router and
// random-walk cover times on this topology.
func Grid2D(w, h int) *Graph {
	if w < 1 || h < 1 || w*h < 2 {
		panic(fmt.Sprintf("graph: Grid2D(%d,%d): need at least 2 nodes", w, h))
	}
	b := NewBuilder(w*h, fmt.Sprintf("grid(%dx%d)", w, h))
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := b.AddEdge(id(x, y), id(x+1, y)); err != nil {
					panic(err)
				}
			}
			if y+1 < h {
				if err := b.AddEdge(id(x, y), id(x, y+1)); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.mustBuild()
}

// Torus2D returns the w x h grid with wraparound in both dimensions
// (requires w, h >= 3 so that no parallel edges arise).
func Torus2D(w, h int) *Graph {
	if w < 3 || h < 3 {
		panic(fmt.Sprintf("graph: Torus2D(%d,%d): need w,h >= 3", w, h))
	}
	b := NewBuilder(w*h, fmt.Sprintf("torus(%dx%d)", w, h))
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if err := b.AddEdge(id(x, y), id((x+1)%w, y)); err != nil {
				panic(err)
			}
			if err := b.AddEdge(id(x, y), id(x, (y+1)%h)); err != nil {
				panic(err)
			}
		}
	}
	return b.mustBuild()
}

// Complete returns the complete graph K_n for n >= 2.
func Complete(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Complete(%d): need n >= 2", n))
	}
	b := NewBuilder(n, fmt.Sprintf("complete(%d)", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.mustBuild()
}

// Star returns the star S_n: node 0 is the hub, nodes 1..n-1 are leaves.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Star(%d): need n >= 2", n))
	}
	b := NewBuilder(n, fmt.Sprintf("star(%d)", n))
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, v); err != nil {
			panic(err)
		}
	}
	return b.mustBuild()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes; node ids
// are the bit patterns of their coordinates.
func Hypercube(d int) *Graph {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("graph: Hypercube(%d): need 1 <= d <= 20", d))
	}
	n := 1 << d
	b := NewBuilder(n, fmt.Sprintf("hypercube(%d)", d))
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				if err := b.AddEdge(v, u); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.mustBuild()
}

// Lollipop returns the lollipop graph: a clique on cliqueSize nodes
// (0..cliqueSize-1) with a path of pathLen extra nodes attached to node 0.
// It is a classical worst case for random-walk cover time and exercises the
// engine on strongly heterogeneous degrees.
func Lollipop(cliqueSize, pathLen int) *Graph {
	if cliqueSize < 2 || pathLen < 1 {
		panic(fmt.Sprintf("graph: Lollipop(%d,%d): need cliqueSize >= 2, pathLen >= 1", cliqueSize, pathLen))
	}
	n := cliqueSize + pathLen
	b := NewBuilder(n, fmt.Sprintf("lollipop(%d,%d)", cliqueSize, pathLen))
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	prev := 0
	for v := cliqueSize; v < n; v++ {
		if err := b.AddEdge(prev, v); err != nil {
			panic(err)
		}
		prev = v
	}
	return b.mustBuild()
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (levels >= 1; a single level is one node, which is rejected
// because a one-node graph has no arcs to route on — use levels >= 2).
func CompleteBinaryTree(levels int) *Graph {
	if levels < 2 {
		panic(fmt.Sprintf("graph: CompleteBinaryTree(%d): need levels >= 2", levels))
	}
	n := 1<<levels - 1
	b := NewBuilder(n, fmt.Sprintf("btree(%d)", levels))
	for v := 1; v < n; v++ {
		if err := b.AddEdge((v-1)/2, v); err != nil {
			panic(err)
		}
	}
	return b.mustBuild()
}

// RandomRegular returns a random d-regular simple graph on n nodes via the
// configuration model with restarts (n*d must be even, d < n). Used as the
// expander-like workload in random-walk comparisons.
func RandomRegular(n, d int, rng *xrand.Rand) (*Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d,%d): need 2 <= d < n and n*d even", n, d)
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryRandomRegular(n, d, rng)
		if ok && g.Connected() {
			g.name = fmt.Sprintf("random-regular(%d,%d)", n, d)
			g.freezeArcIDs()
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d,%d): no simple connected graph after %d attempts", n, d, maxAttempts)
}

// tryRandomRegular performs one pairing attempt of the configuration model,
// rejecting self-loops and parallel edges.
func tryRandomRegular(n, d int, rng *xrand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := make(map[[2]int]bool, n*d/2)
	adj := make([][]Arc, n)
	m := 0
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, false
		}
		seen[key] = true
		pu, pv := len(adj[u]), len(adj[v])
		adj[u] = append(adj[u], Arc{To: v, RevPort: pv})
		adj[v] = append(adj[v], Arc{To: u, RevPort: pu})
		m++
	}
	return &Graph{adj: adj, m: m}, true
}
