package kernel

// The deterministic parallel-within-round stepper. One run of a
// multi-million-node ring is still bound by a single core under the serial
// kernel; this tier shards a fully-active round's node range across
// goroutines while keeping every output bit identical to the serial kernel
// — by construction, not by tolerance:
//
//   - Phase 1 (split): each shard owns a contiguous node range [lo, hi) and
//     computes port splits and pointer advances for its own nodes only. No
//     cross-shard state is touched.
//   - Barrier, then phase 2 (assemble): arrivals at v read only phase-1
//     outputs (the splits and counts of v±1), which are stable after the
//     barrier; every write (next counts, visit counters) is again
//     shard-owned at node granularity.
//   - Merge: the per-shard coverage counts fold into the State serially.
//
// Because nothing about the arithmetic depends on the shard boundaries, the
// result is bit-identical at every shard count — including 1, where the
// stepper delegates to the serial packed round outright. At more shards it
// unpacks a packed state first, since it reads the flat arrays. Held rounds
// run the serial packed held round. The differential fuzz in core compares
// shard counts against each other and against the generic engine.

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

// parallelRing is the parallel-within-round ring stepper. covered is its
// merge scratch: each shard's newly covered nodes, summed after phase 2.
type parallelRing struct {
	shards  int
	covered []int
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
	st.Unpack(false)
	cur := st.Agents
	next, split := st.buffers()
	ptr, visits := st.Ptr, st.Visits
	round := st.Round + 1
	allCovered := st.Covered == n
	if cap(pk.covered) < s {
		pk.covered = make([]int, s)
	}
	res := pk.covered[:s]

	// Phase 1: shard-owned splits and pointer advances.
	parallelFor(n, s, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			m := cur[v]
			p := int64(ptr[v])
			split[v] = (m + 1 - p) >> 1
			ptr[v] = int32((p + m) & 1)
		}
	})

	// Phase 2: assemble arrivals and fold visits/coverage, shard-owned at
	// node granularity; the cross-shard split/cur reads are stable now.
	parallelFor(n, s, func(i, lo, hi int) {
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
		}
		res[i] = covered
	})

	covered := st.Covered
	for _, c := range res {
		covered += c
	}
	if covered == n && st.Covered != n {
		st.CoverRound = round
	}
	st.Covered = covered
	st.Agents, st.Scratch = next, cur
	st.Round = round
	st.FullyActiveRounds++
}

// Run steps sharded rounds until round end or, with cover, the cover round.
func (pk *parallelRing) Run(st *State, end int64, cover bool) {
	for st.Round < end && !(cover && st.Covered == st.N) {
		pk.Step(st)
	}
}

// StepHeld runs the serial packed held ring round: held rounds are not
// sharded.
func (pk *parallelRing) StepHeld(st *State, hold func(v int, c int64) int64) {
	ringStepper{}.StepHeld(st, hold)
}

// buffers returns the zero-initialized-on-allocation next and split
// scratch arrays of the flat round; contents are fully overwritten each
// round, so reuse needs no clearing.
func (st *State) buffers() (next, split []int64) {
	if len(st.Scratch) != st.N {
		st.Scratch = make([]int64, st.N)
	}
	if len(st.Split) != st.N {
		st.Split = make([]int64, st.N)
	}
	return st.Scratch, st.Split
}
