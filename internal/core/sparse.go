package core

import (
	"math/bits"
	"slices"

	"rotorring/internal/kernel"
)

// The sparse degree-2 tier: the generic round of StepHeldFunc, specialized to
// the canonical ring and path, for fully-active rounds with fewer agents
// than the packed kernel round needs to pay off (k < n/kernel.PackedFraction)
// or few enough for interaction-free windows (n ≥ WindowSpread·k²). The
// packed round costs O(n/64) words per plane; this round walks only the
// occupied nodes, like the generic round, and keeps all of that round's
// state: the occupied list and its order, the srcNode/srcCnt movers that
// ForEachFlow reads, coverage and the incremental hash. Degree 2 lets it
// drop the rest:
//
//   - the per-port division and modulo: of the m agents leaving v, the
//     pointed port carries ⌈m/2⌉, the other ⌊m/2⌋, and the pointer ends
//     at p XOR (m mod 2);
//   - the adjacency loads: neighbours are v±1;
//   - the candidate list: a node joins the occupied list either as a
//     source that still holds agents or as a node that was empty before
//     the round, so only the latter need recording.
//
// Held rounds stay on the generic loop. A closed-form held variant
// measured 0–10% slower at (n, k) = (128, 2), (128, 8) and (512, 32): the
// hold draw, not the round, dominated those rounds. That was measured
// while the schedule runner drew holds at all n nodes; it now draws only
// at the occupied ones, so the comparison is due again.

// stepSparse runs one fully-active round on the ring or path named by
// s.sparse, bit-identically to StepHeldFunc(nil). Run and RunUntilCovered
// replace runs of its rounds by interaction-free windows (window, below)
// wherever one opens; every other fully-active round runs here.
func (s *System) stepSparse() {
	s.unpack(false)
	s.ensureOccupied()
	st := &s.st
	agents, visits, ptr := st.Agents, st.Visits, st.Ptr
	round := st.Round + 1

	// Snapshot: the occupied list becomes the round's sources without a
	// copy, and its old backing array takes the rebuilt list below. Source
	// flags stay set, so an arrival marks a node newly occupied exactly
	// when its flag is clear.
	s.srcNode, s.occupied = s.occupied, s.srcNode[:0]
	src := s.srcNode
	cnt := s.srcCnt[:0]
	for _, v := range src {
		cnt = append(cnt, agents[v])
		agents[v] = 0
	}
	s.srcCnt = cnt

	n, ring, hashOn, inOcc := s.n, s.sparse == kernel.ShapeRing, s.hashOn, s.inOcc
	fresh := s.cand[:0]
	var dh uint64
	for i, v := range src {
		m := cnt[i]
		p := ptr[v]
		np := p ^ int32(m&1)
		// a is the pointed port's neighbour and receives ⌈m/2⌉; b, the
		// other port's, receives ⌊m/2⌋. Ring ports: 0 → v+1, 1 → v-1.
		// Path ports: 0 → v-1, 1 → v+1 inside, the endpoints' single port
		// 0 → their one neighbour, whose pointer (p+m) mod 1 stays 0.
		hi, lo := (m+1)>>1, m>>1
		var a, b int
		switch {
		case ring:
			a, b = v+1, v-1
			if a == n {
				a = 0
			}
			if b < 0 {
				b = n - 1
			}
			if p != 0 {
				a, b = b, a
			}
		case v == 0:
			a, hi, lo, np = 1, m, 0, 0
		case v == n-1:
			a, hi, lo, np = n-2, m, 0, 0
		default:
			a, b = v-1, v+1
			if p != 0 {
				a, b = b, a
			}
		}

		// The generic round's port order: a first, then b.
		if !inOcc[a] {
			inOcc[a] = true
			fresh = append(fresh, a)
		}
		agents[a] += hi
		if visits[a] == 0 {
			s.coverAt(round)
		}
		visits[a] += hi
		if lo > 0 {
			if !inOcc[b] {
				inOcc[b] = true
				fresh = append(fresh, b)
			}
			agents[b] += lo
			if visits[b] == 0 {
				s.coverAt(round)
			}
			visits[b] += lo
		}

		if hashOn && np != p {
			dh += hashPtr(v, np) - hashPtr(v, p)
		}
		ptr[v] = np
	}

	// Rebuild the occupied list in the generic round's order: sources that
	// still hold agents, in source order, then newly occupied nodes in
	// discovery order.
	occ := s.occupied
	for i, v := range src {
		a := agents[v]
		if hashOn {
			dh += hashCnt(v, a) - hashCnt(v, cnt[i])
		}
		if a > 0 {
			occ = append(occ, v)
		} else {
			inOcc[v] = false
		}
	}
	if hashOn {
		for _, v := range fresh {
			dh += hashCnt(v, agents[v])
		}
		s.hash += dh
	}
	s.occupied = append(occ, fresh...)
	s.cand = fresh

	s.movers = moversGeneric
	st.Round = round
	st.FullyActiveRounds++
}

// Interaction-free windows. When every occupied node holds exactly one
// agent and the smallest gap g between agents (cyclic on the ring, linear on
// the path) is at least 5, the next h = ⌊(g−1)/2⌋ rounds cannot let two
// agents interact: two agents close in by at most 2 a round, so each of
// those rounds starts with every pair at least g − 2(h−1) ≥ 3 apart. No
// agent then lands on a node that was occupied when its round started, and
// no two land on the same node. stepSparse's rebuild then keeps no source
// (each is left empty) and appends the destinations in source order: each
// round replaces every occupied node by its agent's destination in place,
// so the occupied order is kept exactly. A lone agent (k = 1) has no limit.
//
// window runs such rounds time-major in one tight loop. Per agent step it
// touches only the pointer, visits, coverage and, when on, the hash; it
// stops at the budget and at the cover round, and leaves the agent counts,
// inOcc and the last round's movers exactly as stepSparse would. Windows
// run back to back while the gap allows, each further gap read in O(k)
// from the agents' order by position (ord). A try that fails costs O(k)
// membership probes (crowded), never a sort.

// WindowSpread is the entry rule of interaction-free windows: Run and
// RunUntilCovered try them on the sparse tier when n ≥ WindowSpread·k².
// The rule is keyed to the expected smallest gap between k agents on n
// nodes, about n/k², not to the mean gap n/k: a window needs every pair at
// least 5 apart.
//
// Measured on a 2-vCPU x86-64 host as cover runs, at most 2^20 rounds, from
// one start (all agents on node 0, pointers toward it) and from two random
// starts: the time of round-by-round stepping over the time with windows,
// each the median of five paired runs, as the range over three sizes per
// column (n = 256, 1024, 4096; 512, 2048, 8192 for n/k² = 2 and 8):
//
//	n/k²             1          2          4          8          16         64
//	ring, one start  0.90–1.01  1.01–1.14  1.20–1.37  1.56–1.70  1.91–2.00  2.25–2.92
//	ring, random     0.83–1.08  1.05–1.65  1.26–1.98  1.96–2.53  2.22–2.67  2.45–3.22
//	path, one start  0.88–0.97  0.94–0.99  0.88–1.28  0.95–1.64  1.51–2.25  2.43–3.53
//	path, random     0.84–1.28  1.19–1.82  1.30–2.18  1.96–2.74  2.35–2.69  2.42–3.98
//
// At n = k², as on Ring(4096) with 64 agents, windows cover too few rounds
// to pay for trying them. The path's start at an endpoint is the slowest
// to spread out: Path(4096) with 32 agents (n/k² = 4) runs 0.88, and
// Path(8192) with 32 agents (n/k² = 8) breaks even, at 0.95–1.07 over four
// such medians. Hashed rounds gain alike (ring, n/k² = 8: 1.14–1.98).
const WindowSpread = 8

// windowsOn reports whether Run and RunUntilCovered try interaction-free
// windows: the sparse degree-2 round runs and n ≥ WindowSpread·k².
func (s *System) windowsOn() bool {
	return s.fast == nil && s.sparse != kernel.ShapeGeneral && s.spread()
}

// spread reports whether the windows' entry rule n ≥ WindowSpread·k² holds.
func (s *System) spread() bool {
	return int64(s.n)/(WindowSpread*s.k) >= s.k
}

// window runs interaction-free windows back to back, ending at round end,
// when the cover flag is set at the cover round, or when the next window
// cannot open; it reports whether any round ran.
func (s *System) window(end int64, cover bool) bool {
	s.unpack(false)
	s.ensureOccupied()
	cur, st := s.occupied, &s.st
	if int64(len(cur)) != s.k || end-st.Round < 2 || s.crowded() {
		return false
	}
	n, ring, hashOn := s.n, s.sparse == kernel.ShapeRing, s.hashOn

	// ord lists the agents' indices in cur by position. Agents in a window
	// never meet or pass, so it stays their cyclic (ring) or linear (path)
	// order through every window of the call, and each further window
	// reads its gap in O(k) instead of sorting again.
	ord := s.cand[:0]
	if len(cur) > 1 {
		shift := bits.Len(uint(len(cur)))
		for i, v := range cur {
			ord = append(ord, v<<shift|i)
		}
		slices.Sort(ord)
		for j := range ord {
			ord[j] &= 1<<shift - 1
		}
	}
	s.cand = ord
	h := windowHorizon(cur, ord, n, ring, end-st.Round)
	if h < 2 {
		return false
	}

	agents, visits, ptr, inOcc := st.Agents, st.Visits, st.Ptr, s.inOcc
	for _, v := range cur {
		agents[v] = 0
		inOcc[v] = false
	}
	next := slices.Grow(s.srcNode[:0], len(cur))[:len(cur)]
	var dh uint64
	start, round := st.Round, st.Round
windows:
	for h >= 2 {
		for stop := round + h; round < stop; {
			round++
			for i, v := range cur {
				// Ports as in stepSparse: on the ring 0 → v+1 and 1 → v−1;
				// on the path 0 → v−1 and 1 → v+1 inside, and an endpoint's
				// single port, whose pointer stays 0, to its one neighbour.
				p := ptr[v]
				np := p ^ 1
				var a int
				switch {
				case ring:
					a = v + 1 - 2*int(p)
					if a == n {
						a = 0
					} else if a < 0 {
						a = n - 1
					}
				case v == 0:
					a, np = 1, 0
				case v == n-1:
					a, np = n-2, 0
				default:
					a = v - 1 + 2*int(p)
				}
				if hashOn {
					dh += hashCnt(a, 1) - hashCnt(v, 1)
					if np != p {
						dh += hashPtr(v, np) - hashPtr(v, p)
					}
				}
				ptr[v] = np
				if visits[a] == 0 {
					s.coverAt(round)
				}
				visits[a]++
				next[i] = a
			}
			cur, next = next, cur
			if cover && st.Covered == n {
				break windows
			}
		}
		h = windowHorizon(cur, ord, n, ring, end-round)
	}

	for _, v := range cur {
		agents[v] = 1
		inOcc[v] = true
	}
	cnt := s.srcCnt[:0]
	for range next {
		cnt = append(cnt, 1)
	}
	s.occupied, s.srcNode, s.srcCnt = cur, next, cnt
	s.hash += dh
	s.movers = moversGeneric
	st.FullyActiveRounds += round - start
	st.Round = round
	s.windowRounds += round - start
	return true
}

// crowded reports whether two of the occupied nodes are fewer than 5 apart:
// a window cannot open then, and the membership flags tell so without the
// sort that measuring the gap takes.
func (s *System) crowded() bool {
	n, ring := s.n, s.sparse == kernel.ShapeRing
	for _, v := range s.occupied {
		for u := v + 1; u <= v+4; u++ {
			w := u
			if w >= n {
				if !ring {
					break
				}
				w -= n
			}
			if s.inOcc[w] {
				return true
			}
		}
	}
	return false
}

// windowHorizon returns how many rounds a window may run, at most budget,
// from lone agents at the positions cur: ⌊(g−1)/2⌋ for the smallest gap g
// between agents adjacent in the order ord, cyclic on the ring.
func windowHorizon(cur, ord []int, n int, ring bool, budget int64) int64 {
	if len(ord) == 0 {
		return budget // a lone agent
	}
	g := n
	prev := cur[ord[len(ord)-1]]
	for j, i := range ord {
		v := cur[i]
		if j > 0 || ring {
			d := v - prev
			if d < 0 {
				d += n
			}
			g = min(g, d)
		}
		prev = v
	}
	return min(budget, int64(g-1)/2)
}
