package core

import "rotorring/internal/kernel"

// The sparse degree-2 tier: the generic round of StepHeld, specialized to
// the canonical ring and path, for fully-active rounds with fewer agents
// than the flat kernels need to pay off (k < n/kernel.DenseFraction). A
// flat kernel scans all n nodes per round; this round walks only the
// occupied ones, like the generic round, and keeps all of that round's
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
//     the round, so only the latter need recording;
//   - the visit stamps and the visited list: every agent moves, so the
//     round's visited nodes are the occupied ones after it, and
//     LastVisited derives them on demand;
//   - the per-node hash touch stamps: only sources and newly occupied
//     nodes change count, and their pre-round counts are srcCnt and 0.
//
// Held rounds stay on the generic loop. A closed-form held variant
// measured 0–10% slower at (n, k) = (128, 2), (128, 8) and (512, 32): the
// hold draw, not the round, dominates those rounds.

// stepSparse runs one fully-active round on the ring or path named by
// s.sparse, bit-identically to StepHeld(nil).
func (s *System) stepSparse() {
	s.ensureOccupied()
	st := &s.st
	agents, visits, ptr, exits := st.Agents, st.Visits, st.Ptr, st.Exits
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

	n, ring, hashOn, inOcc := s.n, s.sparse == kernel.ShapeRing, st.HashOn, s.inOcc
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
			s.coverAt(a, round)
		}
		visits[a] += hi
		if lo > 0 {
			if !inOcc[b] {
				inOcc[b] = true
				fresh = append(fresh, b)
			}
			agents[b] += lo
			if visits[b] == 0 {
				s.coverAt(b, round)
			}
			visits[b] += lo
		}

		exits[v] += m
		if hashOn && np != p {
			dh += kernel.HashPtr(v, np) - kernel.HashPtr(v, p)
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
			dh += kernel.HashCnt(v, a) - kernel.HashCnt(v, cnt[i])
		}
		if a > 0 {
			occ = append(occ, v)
		} else {
			inOcc[v] = false
		}
	}
	if hashOn {
		for _, v := range fresh {
			dh += kernel.HashCnt(v, agents[v])
		}
		st.Hash += dh
	}
	s.occupied = append(occ, fresh...)
	s.cand = fresh

	s.movers, s.held = moversGeneric, nil
	s.lastVisitedFast = true
	st.Round = round
	st.FullyActiveRounds++
}
