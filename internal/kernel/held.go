package kernel

// The held-round (delayed-deployment) kernel tier. A delay schedule holds
// held[v] of the agents at node v back each round (§2.1 of the paper);
// before this tier every held round fell off the fast path onto the generic
// engine one round at a time — the schedule tax BENCH_engine.json pins.
//
// The ring kernel below fuses the split and assemble passes of ring.go into
// a single sweep with rolling registers: when node u has been computed, node
// u-1's arrivals are fully determined (they need the clockwise share of u-2
// and the anticlockwise movers of u), so the kernel finalizes u-1 on the
// spot — one pass over the flat arrays instead of three, which is what the
// held fold (clamp, stayer add-back, eager visited list) would otherwise
// cost. The path kernel uses the same fusion without the wrap-around.
//
// Differences from the fully-active kernels, forced by held semantics:
//
//   - next[v] = held_v + arrivals_v: stayers are added back after the split
//     of the m = c - held movers. held is clamped to [0, agents[v]] exactly
//     like the generic engine, so stale entries at unoccupied nodes are
//     harmless.
//   - The per-round visited list cannot be derived lazily from occupancy
//     (held stayers are occupied but not visited), so the kernel appends to
//     LastVisited eagerly, in no particular order — the same contract the
//     generic engine's list carries. VisitStamp is still skipped: stale
//     stamps stay strictly below any future generic round stamp.
//   - FullyActiveRounds only advances when the round held no agent, which
//     the kernel detects from the clamped held sum.

func (ringStepper) StepHeld(st *State, held []int64) {
	if !st.HashOn {
		ringStepHeldFast(st, held)
		return
	}
	ringStepHeldHash(st, held)
}

// ringStepHeldFast is the hash-off held ring round — the hot path of every
// delay schedule. Beyond the fusion, it keeps the per-node work branch-lean:
// the visit fold adds zero arrivals unconditionally (the identity) instead
// of branching, and the visited list advances its length by a flag so the
// ~50% arrival branch never mispredicts.
func ringStepHeldFast(st *State, held []int64) {
	n := st.N
	next, _ := st.buffers()
	// Reslice everything to n so the compiler can drop the per-node bounds
	// checks in the sweep below.
	cur, held, next := st.Agents[:n], held[:n], next[:n]
	ptr, exits, visits := st.Ptr[:n], st.Exits[:n], st.Visits[:n]
	round := st.Round + 1
	covered := st.Covered
	if cap(st.LastVisited) < n {
		st.LastVisited = make([]int, n)
	}
	lv := st.LastVisited[:n]
	lvn := 0
	var heldSum int64

	// Prologue: compute nodes 0 and 1 (node 0 finalizes after n-1).
	c := cur[0]
	h0 := held[0]
	if h0 > c {
		h0 = c
	}
	if h0 < 0 {
		h0 = 0
	}
	m0 := c - h0
	p := int64(ptr[0])
	s0 := (m0 + 1 - p) >> 1
	ptr[0] = int32((p + m0) & 1)
	exits[0] += m0
	heldSum += h0

	c = cur[1]
	h1 := held[1]
	if h1 > c {
		h1 = c
	}
	if h1 < 0 {
		h1 = 0
	}
	m1 := c - h1
	p = int64(ptr[1])
	s1 := (m1 + 1 - p) >> 1
	ptr[1] = int32((p + m1) & 1)
	exits[1] += m1
	heldSum += h1

	// Main sweep: compute node u, finalize node v = u-1.
	sPrev2, sPrev, hPrev := s0, s1, h1
	for u := 2; u < n; u++ {
		c = cur[u]
		h := held[u]
		if h > c {
			h = c
		}
		if h < 0 {
			h = 0
		}
		m := c - h
		p = int64(ptr[u])
		s := (m + 1 - p) >> 1
		ptr[u] = int32((p + m) & 1)
		exits[u] += m
		heldSum += h

		v := u - 1
		a := sPrev2 + m - s
		next[v] = hPrev + a
		if visits[v] == 0 && a != 0 {
			st.CoveredAt[v] = round
			covered++
		}
		visits[v] += a
		lv[lvn] = v
		lvn += int((uint64(a) | uint64(-a)) >> 63)

		sPrev2, sPrev, hPrev = sPrev, s, h
	}

	// Epilogue: finalize n-1 (arrivals wrap to node 0's movers) and node 0.
	a := sPrev2 + m0 - s0
	next[n-1] = hPrev + a
	if visits[n-1] == 0 && a != 0 {
		st.CoveredAt[n-1] = round
		covered++
	}
	visits[n-1] += a
	lv[lvn] = n - 1
	lvn += int((uint64(a) | uint64(-a)) >> 63)

	a = sPrev + m1 - s1
	next[0] = h0 + a
	if visits[0] == 0 && a != 0 {
		st.CoveredAt[0] = round
		covered++
	}
	visits[0] += a
	lv[lvn] = 0
	lvn += int((uint64(a) | uint64(-a)) >> 63)

	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	st.LastVisited = lv[:lvn]
	st.Agents, st.Scratch = next, cur
	st.Round = round
	if heldSum == 0 {
		st.FullyActiveRounds++
	}
}

// ringStepHeldHash is the hash-maintaining held ring round (tier 2 on).
func ringStepHeldHash(st *State, held []int64) {
	n := st.N
	next, _ := st.buffers()
	cur, held, next := st.Agents[:n], held[:n], next[:n]
	ptr, exits, visits := st.Ptr[:n], st.Exits[:n], st.Visits[:n]
	hashOn := true
	round := st.Round + 1
	covered := st.Covered
	lv := st.LastVisited[:0]
	var dh uint64
	var heldSum int64

	// Prologue: compute nodes 0 and 1. Node 0 cannot be finalized until
	// node n-1 is computed (its arrivals wrap), so its held count and node
	// 0/1's splits are carried to the epilogue.
	c := cur[0]
	h0 := held[0]
	if h0 < 0 {
		h0 = 0
	} else if h0 > c {
		h0 = c
	}
	m0 := c - h0
	p := ptr[0]
	s0 := (m0 + 1 - int64(p)) >> 1
	np := int32((int64(p) + m0) & 1)
	if hashOn && np != p {
		dh += HashPtr(0, np) - HashPtr(0, p)
	}
	ptr[0] = np
	exits[0] += m0
	heldSum += h0

	c = cur[1]
	h1 := held[1]
	if h1 < 0 {
		h1 = 0
	} else if h1 > c {
		h1 = c
	}
	m1 := c - h1
	p = ptr[1]
	s1 := (m1 + 1 - int64(p)) >> 1
	np = int32((int64(p) + m1) & 1)
	if hashOn && np != p {
		dh += HashPtr(1, np) - HashPtr(1, p)
	}
	ptr[1] = np
	exits[1] += m1
	heldSum += h1

	// Main sweep: compute node u, finalize node v = u-1. Registers carry
	// the clockwise shares of u-2 and u-1 and the held count of u-1.
	sPrev2, sPrev, hPrev := s0, s1, h1
	for u := 2; u < n; u++ {
		c = cur[u]
		h := held[u]
		if h < 0 {
			h = 0
		} else if h > c {
			h = c
		}
		m := c - h
		p = ptr[u]
		s := (m + 1 - int64(p)) >> 1
		np = int32((int64(p) + m) & 1)
		if hashOn && np != p {
			dh += HashPtr(u, np) - HashPtr(u, p)
		}
		ptr[u] = np
		exits[u] += m
		heldSum += h

		// Finalize v = u-1: arrivals are the clockwise movers of v-1 plus
		// the anticlockwise movers of v+1 = u.
		v := u - 1
		a := sPrev2 + m - s
		nv := hPrev + a
		next[v] = nv
		if a != 0 {
			if visits[v] == 0 {
				st.CoveredAt[v] = round
				covered++
			}
			visits[v] += a
			lv = append(lv, v)
		}
		if hashOn && nv != cur[v] {
			dh += HashCnt(v, nv) - HashCnt(v, cur[v])
		}

		sPrev2, sPrev, hPrev = sPrev, s, h
	}

	// Epilogue: finalize n-1 (arrivals wrap to node 0's movers) and node 0.
	a := sPrev2 + m0 - s0
	nv := hPrev + a
	next[n-1] = nv
	if a != 0 {
		if visits[n-1] == 0 {
			st.CoveredAt[n-1] = round
			covered++
		}
		visits[n-1] += a
		lv = append(lv, n-1)
	}
	if hashOn && nv != cur[n-1] {
		dh += HashCnt(n-1, nv) - HashCnt(n-1, cur[n-1])
	}

	a = sPrev + m1 - s1
	nv = h0 + a
	next[0] = nv
	if a != 0 {
		if visits[0] == 0 {
			st.CoveredAt[0] = round
			covered++
		}
		visits[0] += a
		lv = append(lv, 0)
	}
	if hashOn && nv != cur[0] {
		dh += HashCnt(0, nv) - HashCnt(0, cur[0])
	}

	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	if hashOn {
		st.Hash += dh
	}
	st.LastVisited = lv
	st.Agents, st.Scratch = next, cur
	st.Round = round
	if heldSum == 0 {
		st.FullyActiveRounds++
	}
}

func (pathStepper) StepHeld(st *State, held []int64) {
	n := st.N
	cur := st.Agents
	next, _ := st.buffers()
	ptr, exits, visits := st.Ptr, st.Exits, st.Visits
	hashOn := st.HashOn
	round := st.Round + 1
	covered := st.Covered
	lv := st.LastVisited[:0]
	var dh uint64
	var heldSum int64

	// finalize folds node v's arrivals a and stayers h into the next-round
	// state. Small enough to inline at every call site.
	finalize := func(v int, h, a int64) {
		nv := h + a
		next[v] = nv
		if a != 0 {
			if visits[v] == 0 {
				st.CoveredAt[v] = round
				covered++
			}
			visits[v] += a
			lv = append(lv, v)
		}
		if hashOn && nv != cur[v] {
			dh += HashCnt(v, nv) - HashCnt(v, cur[v])
		}
	}

	// Prologue: node 0 sends everything right through its single port
	// (leftward share 0, pointer pinned at 0), node 1 is the first interior
	// node. Node 0 finalizes as soon as node 1 is computed.
	c := cur[0]
	h0 := held[0]
	if h0 < 0 {
		h0 = 0
	} else if h0 > c {
		h0 = c
	}
	m0 := c - h0
	exits[0] += m0
	heldSum += h0

	// n == 2: both nodes are endpoints exchanging their movers.
	if n == 2 {
		c = cur[1]
		h1 := held[1]
		if h1 < 0 {
			h1 = 0
		} else if h1 > c {
			h1 = c
		}
		m1 := c - h1
		exits[1] += m1
		heldSum += h1
		finalize(0, h0, m1)
		finalize(1, h1, m0)
	} else {
		c = cur[1]
		h1 := held[1]
		if h1 < 0 {
			h1 = 0
		} else if h1 > c {
			h1 = c
		}
		m1 := c - h1
		p := ptr[1]
		s1 := (m1 + 1 - int64(p)) >> 1
		np := int32((int64(p) + m1) & 1)
		if hashOn && np != p {
			dh += HashPtr(1, np) - HashPtr(1, p)
		}
		ptr[1] = np
		exits[1] += m1
		heldSum += h1
		finalize(0, h0, s1)

		// Main sweep: compute node u, finalize v = u-1 with the rightward
		// movers of v-1 and the leftward share of u. mPrev2/sPrev2 describe
		// node u-2; node 0's "split" is 0 by the endpoint convention.
		mPrev2, sPrev2 := m0, int64(0)
		mPrev, sPrev, hPrev := m1, s1, h1
		for u := 2; u < n-1; u++ {
			c = cur[u]
			h := held[u]
			if h < 0 {
				h = 0
			} else if h > c {
				h = c
			}
			m := c - h
			p = ptr[u]
			s := (m + 1 - int64(p)) >> 1
			np = int32((int64(p) + m) & 1)
			if hashOn && np != p {
				dh += HashPtr(u, np) - HashPtr(u, p)
			}
			ptr[u] = np
			exits[u] += m
			heldSum += h

			finalize(u-1, hPrev, mPrev2-sPrev2+s)
			mPrev2, sPrev2 = mPrev, sPrev
			mPrev, sPrev, hPrev = m, s, h
		}

		// Epilogue: node n-1 sends everything left through its single port
		// (leftward share = all movers), then the last two nodes finalize.
		c = cur[n-1]
		hLast := held[n-1]
		if hLast < 0 {
			hLast = 0
		} else if hLast > c {
			hLast = c
		}
		mLast := c - hLast
		exits[n-1] += mLast
		heldSum += hLast

		finalize(n-2, hPrev, mPrev2-sPrev2+mLast)
		finalize(n-1, hLast, mPrev-sPrev)
	}

	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	if hashOn {
		st.Hash += dh
	}
	st.LastVisited = lv
	st.Agents, st.Scratch = next, cur
	st.Round = round
	if heldSum == 0 {
		st.FullyActiveRounds++
	}
}
