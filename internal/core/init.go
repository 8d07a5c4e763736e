package core

import (
	"fmt"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// This file constructs the initial pointer arrangements that the paper's
// adversary uses. In all of the paper's statements the ports and pointers
// are set adversarially (§1.3, end); these helpers produce the named
// arrangements from the proofs:
//
//   - PointersTowardNode:  "all pointers are initialized along the shortest
//     path to v" — the worst case of Theorem 1.
//   - PointersNegative:    "negatively initialized pointers" — the pointer
//     at every node points toward the nearest starting agent so that the
//     first visit to a node reflects the visitor back (§2.2, Theorem 4).
//   - PointersUniform, PointersRandom: neutral baselines.

// PointersTowardNode returns a pointer arrangement in which every node's
// pointer lies on a shortest path toward target (BFS tie-broken by port
// order). The pointer at target itself is port 0.
func PointersTowardNode(g *graph.Graph, target int) ([]int, error) {
	n := g.NumNodes()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("core: target %d out of range [0,%d)", target, n)
	}
	dist := g.BFSDist(target)
	ptr := make([]int, n)
	for v := 0; v < n; v++ {
		if v == target {
			continue // port 0
		}
		found := false
		for p := 0; p < g.Degree(v); p++ {
			if dist[g.Neighbor(v, p)] == dist[v]-1 {
				ptr[v] = p
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: node %d has no neighbor closer to %d", v, target)
		}
	}
	return ptr, nil
}

// PointersNegative returns the paper's negative initialization with respect
// to the given starting agent positions: each node's pointer points toward
// its nearest agent (multi-source BFS), so an agent's first visit to an
// unvisited node sends it straight back where it came from. Pointers at the
// agents' own nodes are port 0 (the paper leaves them arbitrary).
func PointersNegative(g *graph.Graph, agentPositions []int) ([]int, error) {
	n := g.NumNodes()
	if len(agentPositions) == 0 {
		return nil, fmt.Errorf("core: PointersNegative needs at least one agent position")
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	for _, v := range agentPositions {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("core: agent position %d out of range [0,%d)", v, n)
		}
		if dist[v] < 0 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(v); p++ {
			u := g.Neighbor(v, p)
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	ptr := make([]int, n)
	for v := 0; v < n; v++ {
		if dist[v] == 0 {
			continue // agent start: arbitrary (port 0)
		}
		for p := 0; p < g.Degree(v); p++ {
			if dist[g.Neighbor(v, p)] == dist[v]-1 {
				ptr[v] = p
				break
			}
		}
	}
	return ptr, nil
}

// PointersUniform returns the arrangement with every pointer at port
// min(p, deg(v)-1). On the ring, PointersUniform(g, graph.RingCW) makes all
// pointers clockwise.
func PointersUniform(g *graph.Graph, p int) []int {
	ptr := make([]int, g.NumNodes())
	for v := range ptr {
		q := p
		if q >= g.Degree(v) {
			q = g.Degree(v) - 1
		}
		if q < 0 {
			q = 0
		}
		ptr[v] = q
	}
	return ptr
}

// PointersRandom returns an arrangement with every pointer chosen uniformly
// at random among the node's ports.
func PointersRandom(g *graph.Graph, rng *xrand.Rand) []int {
	ptr := make([]int, g.NumNodes())
	for v := range ptr {
		ptr[v] = rng.Intn(g.Degree(v))
	}
	return ptr
}

// EquallySpaced returns k starting positions spread evenly around a ring (or
// any node range) of n nodes: positions floor(i*n/k). This is the best-case
// placement of Theorems 3 and 5.
func EquallySpaced(n, k int) []int {
	pos := make([]int, k)
	for i := 0; i < k; i++ {
		pos[i] = i * n / k
	}
	return pos
}

// AllOnNode returns k starting positions all equal to v — the worst-case
// placement of Theorem 1.
func AllOnNode(v, k int) []int {
	pos := make([]int, k)
	for i := range pos {
		pos[i] = v
	}
	return pos
}

// RandomPositions returns k independent uniform starting positions on n
// nodes.
func RandomPositions(n, k int, rng *xrand.Rand) []int {
	pos := make([]int, k)
	for i := range pos {
		pos[i] = rng.Intn(n)
	}
	return pos
}
