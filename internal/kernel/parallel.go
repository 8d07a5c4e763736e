package kernel

// The deterministic parallel-within-round stepper. One run of a
// multi-million-node ring is still bound by a single core under the serial
// kernel; this tier shards the node range across goroutines while keeping
// every output bit identical to the serial kernel — by construction, not by
// tolerance:
//
//   - Phase 1 (split): each shard owns a contiguous node range [lo, hi) and
//     computes port splits and pointer advances for its own nodes only. No
//     cross-shard state is touched.
//   - Barrier, then phase 2 (assemble): arrivals at v read only phase-1
//     outputs (the splits and movers of v±1), which are stable after the
//     barrier; every write (next counts, visit counters) is again
//     shard-owned at node granularity.
//   - Merge: the per-shard hash deltas, coverage counts and held sums fold
//     into the State serially. The incremental hash is a sum of per-node
//     deltas mod 2^64, so any grouping of the additions produces the same
//     value.
//
// Because nothing about the arithmetic depends on the shard boundaries, the
// result is bit-identical at every shard count — including 1, where the
// stepper delegates to the serial kernel outright. The differential fuzz in
// core compares shard counts against each other and against the generic
// engine.

import (
	"runtime"
	"sync"
)

// Parallelize wraps s in the deterministic parallel-within-round stepper
// when the shape supports one — currently the ring, whose flat layout
// shards into contiguous ranges. shards fixes the shard count; <= 0 means
// GOMAXPROCS at step time. Other steppers (and nil) are returned unchanged:
// the path kernel stays serial. Each call returns a fresh instance; unlike
// the serial kernels a parallel stepper carries merge scratch and must not
// be shared between systems stepping concurrently.
func Parallelize(s Stepper, shards int) Stepper {
	if _, ok := s.(ringStepper); ok {
		return &parallelRing{shards: shards}
	}
	return s
}

// ringShard is one shard's merge slot: state folded serially after the
// phase-2 barrier.
type ringShard struct {
	dh      uint64
	covered int
	heldSum int64
}

// parallelRing is the parallel-within-round ring stepper.
type parallelRing struct {
	shards int
	res    []ringShard
}

func (pk *parallelRing) Name() string { return "ring-parallel" }

// shardCount resolves the effective shard count for an n-node round.
func (pk *parallelRing) shardCount(n int) int {
	s := pk.shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (pk *parallelRing) results(s int) []ringShard {
	if cap(pk.res) < s {
		pk.res = make([]ringShard, s)
	}
	res := pk.res[:s]
	for i := range res {
		res[i].dh, res[i].covered, res[i].heldSum = 0, 0, 0
	}
	return res
}

// parallelFor runs f over S contiguous shards of [0, n) and waits for all
// of them. Shard 0 runs on the calling goroutine.
func parallelFor(n, s int, f func(shard, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(s - 1)
	for i := 1; i < s; i++ {
		go func(i int) {
			defer wg.Done()
			f(i, n*i/s, n*(i+1)/s)
		}(i)
	}
	f(0, 0, n/s)
	wg.Wait()
}

func (pk *parallelRing) Step(st *State) {
	n := st.N
	s := pk.shardCount(n)
	if s == 1 {
		ringStepper{}.Step(st)
		return
	}
	cur := st.Agents
	next, split := st.buffers()
	ptr, visits := st.Ptr, st.Visits
	hashOn := st.HashOn
	round := st.Round + 1
	allCovered := st.Covered == n
	res := pk.results(s)

	// Phase 1: shard-owned splits and pointer advances.
	parallelFor(n, s, func(i, lo, hi int) {
		var dh uint64
		if hashOn {
			for v := lo; v < hi; v++ {
				m := cur[v]
				if m == 0 {
					split[v] = 0
					continue
				}
				p := ptr[v]
				split[v] = (m + 1 - int64(p)) >> 1
				np := int32((int64(p) + m) & 1)
				dh += HashPtr(v, np) - HashPtr(v, p)
				ptr[v] = np
			}
		} else {
			for v := lo; v < hi; v++ {
				m := cur[v]
				p := int64(ptr[v])
				split[v] = (m + 1 - p) >> 1
				ptr[v] = int32((p + m) & 1)
			}
		}
		res[i].dh = dh
	})

	// Phase 2: assemble arrivals and fold visits/coverage, shard-owned at
	// node granularity; the cross-shard split/cur reads are stable now.
	parallelFor(n, s, func(i, lo, hi int) {
		var dh uint64
		covered := 0
		for v := lo; v < hi; v++ {
			var a int64
			switch v {
			case 0:
				a = split[n-1] + cur[1] - split[1]
			case n - 1:
				a = split[n-2] + cur[0] - split[0]
			default:
				a = split[v-1] + cur[v+1] - split[v+1]
			}
			next[v] = a
			if a != 0 {
				if !allCovered && visits[v] == 0 {
					covered++
				}
				visits[v] += a
			}
			if hashOn && a != cur[v] {
				dh += HashCnt(v, a) - HashCnt(v, cur[v])
			}
		}
		res[i].dh += dh
		res[i].covered = covered
	})

	covered := st.Covered
	var dh uint64
	for i := range res {
		dh += res[i].dh
		covered += res[i].covered
	}
	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	if hashOn {
		st.Hash += dh
	}
	st.Agents, st.Scratch = next, cur
	st.Round = round
	st.FullyActiveRounds++
}

func (pk *parallelRing) StepHeld(st *State, held []int64) {
	n := st.N
	s := pk.shardCount(n)
	if s == 1 {
		ringStepper{}.StepHeld(st, held)
		return
	}
	cur := st.Agents
	next, split := st.buffers()
	if len(st.Active) != n {
		st.Active = make([]int64, n)
	}
	active := st.Active
	ptr, visits := st.Ptr, st.Visits
	hashOn := st.HashOn
	round := st.Round + 1
	res := pk.results(s)

	// Phase 1: clamp the hold, split the movers, advance pointers.
	parallelFor(n, s, func(i, lo, hi int) {
		var dh uint64
		var heldSum int64
		for v := lo; v < hi; v++ {
			c := cur[v]
			h := held[v]
			if h < 0 {
				h = 0
			} else if h > c {
				h = c
			}
			m := c - h
			p := ptr[v]
			split[v] = (m + 1 - int64(p)) >> 1
			np := int32((int64(p) + m) & 1)
			if hashOn && np != p {
				dh += HashPtr(v, np) - HashPtr(v, p)
			}
			ptr[v] = np
			active[v] = m
			heldSum += h
		}
		res[i].dh = dh
		res[i].heldSum = heldSum
	})

	// Phase 2: next[v] = stayers + arrivals.
	parallelFor(n, s, func(i, lo, hi int) {
		var dh uint64
		covered := 0
		for v := lo; v < hi; v++ {
			var a int64
			switch v {
			case 0:
				a = split[n-1] + active[1] - split[1]
			case n - 1:
				a = split[n-2] + active[0] - split[0]
			default:
				a = split[v-1] + active[v+1] - split[v+1]
			}
			nv := cur[v] - active[v] + a
			next[v] = nv
			if a != 0 {
				if visits[v] == 0 {
					covered++
				}
				visits[v] += a
			}
			if hashOn && nv != cur[v] {
				dh += HashCnt(v, nv) - HashCnt(v, cur[v])
			}
		}
		res[i].dh += dh
		res[i].covered = covered
	})

	covered := st.Covered
	var dh uint64
	var heldSum int64
	for i := range res {
		dh += res[i].dh
		covered += res[i].covered
		heldSum += res[i].heldSum
	}
	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	if hashOn {
		st.Hash += dh
	}
	st.Agents, st.Scratch = next, cur
	st.Round = round
	if heldSum == 0 {
		st.FullyActiveRounds++
	}
}
