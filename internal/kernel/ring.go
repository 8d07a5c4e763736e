package kernel

// The tier-1 rotor kernels. Both use the same gather formulation in three
// linear passes over flat []int64 arrays — no graph.Neighbor indirection,
// no per-node source/candidate bookkeeping, no occupied-list rebuild, and
// no scatter read-modify-writes:
//
//  1. split: per node, the closed-form degree-2 port split of its m
//     departing agents and the pointer advance. On the ring the
//     pass is fully branchless: with pointer p ∈ {0,1}, the pointed port
//     carries ⌈m/2⌉, so split = (m+1-p)>>1 — which is 0 when m = 0 — and
//     the new pointer (p+m) mod 2 equals p when m = 0.
//  2. assemble: arrivals at v are a pure function of the neighbors' counts
//     and splits, written sequentially into the double buffer.
//  3. finishRound (shared): fold arrivals into visit/coverage counters and
//     swap buffers.
//
// Degree-2 split law (the paper's round rule specialized to d = 2): the m
// agents leaving v use ports p, p+1, …, p+m-1 (mod 2), so port p carries
// ⌈m/2⌉, the other port ⌊m/2⌋, and the pointer ends at (p+m) mod 2.

// buffers returns the zero-initialized-on-allocation next and split
// scratch arrays; contents are fully overwritten each round, so reuse
// needs no clearing.
func (st *State) buffers() (next, split []int64) {
	if len(st.Scratch) != st.N {
		st.Scratch = make([]int64, st.N)
	}
	if len(st.Split) != st.N {
		st.Split = make([]int64, st.N)
	}
	return st.Scratch, st.Split
}

// finishRound folds the arrivals assembled in next into visits and
// coverage and swaps the buffers, leaving the start-of-round counts cur in
// Scratch.
func (st *State) finishRound(cur, next []int64) {
	round := st.Round + 1
	visits := st.Visits
	if covered := st.Covered; covered == st.N {
		// Fully covered: only the visit counters still change.
		for v, a := range next {
			if a != 0 {
				visits[v] += a
			}
		}
	} else {
		for v, a := range next {
			if a == 0 {
				continue
			}
			if visits[v] == 0 {
				covered++
			}
			visits[v] += a
		}
		if covered == st.N {
			st.CoverRound = round
		}
		st.Covered = covered
	}

	st.Agents, st.Scratch = next, cur
	st.Round = round
	st.FullyActiveRounds++
}

// ringStepper is the tier-1 kernel for graph.Ring topologies.
type ringStepper struct{}

func (ringStepper) Name() string { return "ring" }

func (ringStepper) Step(st *State) {
	n := st.N
	cur := st.Agents
	next, split := st.buffers()
	ptr := st.Ptr

	// Split pass: split[v] is the clockwise (port 0) share of cur[v].
	for v, m := range cur {
		p := int64(ptr[v])
		split[v] = (m + 1 - p) >> 1
		ptr[v] = int32((p + m) & 1)
	}

	// Assemble pass: arrivals at v are the clockwise movers of v-1 plus
	// the anticlockwise movers of v+1.
	next[0] = split[n-1] + cur[1] - split[1]
	for v := 1; v < n-1; v++ {
		next[v] = split[v-1] + cur[v+1] - split[v+1]
	}
	next[n-1] = split[n-2] + cur[0] - split[0]

	st.finishRound(cur, next)
}

// pathStepper is the tier-1 kernel for graph.Path topologies. Interior
// nodes have port 0 → v-1 and port 1 → v+1; the endpoints have a single
// port whose pointer never moves ((p+m) mod 1 = 0).
type pathStepper struct{}

func (pathStepper) Name() string { return "path" }

func (pathStepper) Step(st *State) {
	n := st.N
	cur := st.Agents
	next, split := st.buffers()
	ptr := st.Ptr

	// Split pass: split[v] is the leftward (port 0) share of cur[v]. The
	// endpoints send everything through their only port: node 0 has no
	// left arc (split 0), node n-1 only the left arc (split all).
	split[0] = 0
	split[n-1] = cur[n-1]
	for v := 1; v < n-1; v++ {
		m := cur[v]
		p := int64(ptr[v])
		split[v] = (m + 1 - p) >> 1
		ptr[v] = int32((p + m) & 1)
	}

	// Assemble pass: arrivals at v are the rightward movers of v-1 plus
	// the leftward movers of v+1.
	next[0] = split[1]
	for v := 1; v < n-1; v++ {
		next[v] = cur[v-1] - split[v-1] + split[v+1]
	}
	next[n-1] = cur[n-2] - split[n-2]

	st.finishRound(cur, next)
}
