package core

import (
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// The packed tier's differential tests. Fully-active ring and path rounds
// run bit-sliced, 64 nodes per word (internal/kernel's packed.go), with the
// flat arrays as a lazily materialized view; these tests step the packed
// arms next to the generic engine at the sizes where words begin and end,
// at every density, through count planes that grow and shrink, and through
// every switch between the packed state and the flat arrays: reads that
// materialize, held rounds that stay packed, generic rounds that unpack,
// and Run chunks with no read in between.

// packedSizes are the node counts around word boundaries, and larger.
var packedSizes = []int{2, 3, 63, 64, 65, 127, 128, 129, 200, 1000}

// packedAgents returns agent counts for n nodes across the tiers: the
// windows' and sparse band, the packed band below the held threshold,
// dense, and counts of 2^j − 1, 2^j and 2^j + 1 that a stacked start splits
// across plane boundaries.
func packedAgents(n int) []int {
	ks := []int{1, max(1, n/32), max(1, n/8), n, 4 * n}
	for _, j := range []int{3, 4, 9} {
		ks = append(ks, 1<<j-1, 1<<j, 1<<j+1)
	}
	return ks
}

// TestPackedDifferential steps the forced kernel (packed rounds, fully
// active and held) and KernelAuto against the generic engine on
// rings and paths of packedSizes nodes, from random and stacked starts,
// with and without hashing. Each trial mixes single packed rounds, Run
// chunks with no read between their rounds, held rounds and generic
// StepHeld(nil) rounds, and compares every observable after each.
func TestPackedDifferential(t *testing.T) {
	rng := xrand.New(0x9ac4ed)
	var packedRounds int64
	for _, n := range packedSizes {
		for _, ring := range []bool{true, false} {
			if ring && n < 3 {
				continue
			}
			for i, k := range packedAgents(n) {
				c := diffConfig{ring: ring, n: n, k: k, hash: i%2 == 0, stacked: i%3 != 1}
				gen, fast, auto := buildArms(t, c, rng)
				arms := []*System{fast}
				if auto != nil {
					arms = append(arms, auto)
				}
				held := make([]int64, n)
				for op := 0; op < 24; op++ {
					switch r := rng.Intn(8); {
					case r < 3:
						gen.Step()
						for _, a := range arms {
							a.Step()
						}
					case r < 6:
						rounds := int64(1 + rng.Intn(min(3*n, 400)))
						gen.Run(rounds)
						for _, a := range arms {
							a.Run(rounds)
						}
					case r == 6:
						for v := range held {
							held[v] = 0
						}
						for _, v := range gen.Occupied() {
							held[v] = int64(rng.Intn(int(gen.AgentsAt(v)) + 1))
						}
						gen.StepHeld(held)
						for _, a := range arms {
							a.StepHeld(held)
						}
					default:
						gen.Step()
						for _, a := range arms {
							a.StepHeld(nil)
						}
					}
					if fast.st.Packed() {
						packedRounds++
					}
					for _, a := range arms {
						compareArm(t, c, int(gen.Round()), gen, a)
					}
				}
			}
		}
	}
	if packedRounds == 0 {
		t.Fatal("no packed round ran")
	}
}

// runPackedOps applies ops, two bytes per call as in runWindowOps, to the
// generic arm and to each other arm: Run(r) or RunUntilCovered(round + r),
// r < 2^15, with nothing read between the rounds of a call. Every
// observable must agree after each call. budget caps the rounds run.
func runPackedOps(t *testing.T, c diffConfig, gen *System, arms []*System, ops []byte, budget int64) {
	t.Helper()
	for i := 0; i+1 < len(ops) && gen.Round() < budget; i += 2 {
		r := min(int64(ops[i]>>1)|int64(ops[i+1])<<7, budget-gen.Round())
		if ops[i]&1 == 0 {
			gen.Run(r)
			for _, a := range arms {
				a.Run(r)
			}
		} else {
			end := gen.Round() + r
			cg, errG := gen.RunUntilCovered(end)
			for _, a := range arms {
				ca, errA := a.RunUntilCovered(end)
				if cg != ca || (errG == nil) != (errA == nil) {
					t.Fatalf("%v: RunUntilCovered(%d) = %d, %v on generic, %d, %v on %s",
						c, end, cg, errG, ca, errA, a.KernelName())
				}
			}
		}
		for _, a := range arms {
			compareArm(t, c, int(gen.Round()), gen, a)
		}
	}
}

// FuzzKernelPackedEquivalence fuzzes the packed tier against the generic
// engine: a ring or path, from a random or stacked start, hashed or not,
// advanced by fuzzed Run and RunUntilCovered chunks (runPackedOps) on the
// forced kernel and under KernelAuto. With huge set, 2^20 to 2^21 agents
// share a ring of 3 to 8 nodes, so that counts take twenty planes and the
// visits derived at each read cover thousands of rounds.
func FuzzKernelPackedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(62), uint32(40), true, false, false, false, windowOps(100, 7, -3000))
	f.Add(uint64(2), uint16(63), uint32(300), false, true, true, false, windowOps(5, 1000, 64))
	f.Add(uint64(3), uint16(127), uint32(7), true, true, false, false, windowOps(-1<<14, 300))
	f.Add(uint64(4), uint16(0), uint32(5), false, false, true, false, windowOps(33, 2))
	f.Add(uint64(5), uint16(1), uint32(0), true, true, true, true, windowOps(3000, 5000, 1, 20000))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, kRaw uint32, ring, hash, stacked, huge bool, ops []byte) {
		n := 2 + int(nRaw)%300
		k := 1 + int(kRaw)%(4*n)
		budget := int64(1<<22) / int64(n)
		if huge {
			n, k, budget = 3+int(nRaw)%6, 1<<20+int(kRaw)%(1<<20), 1<<16
		}
		if ring && n < 3 {
			n = 3
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		c := diffConfig{ring: ring, n: n, k: k, hash: hash, stacked: stacked}
		gen, fast, auto := buildArms(t, c, xrand.New(seed))
		arms := []*System{fast}
		if auto != nil {
			arms = append(arms, auto)
		}
		runPackedOps(t, c, gen, arms, ops, budget)
	})
}

// TestPackedAccumulatorFlush runs a million agents on Ring(3) and Path(3)
// for 9000 rounds between reads, with counts of twenty planes: the visits
// derived at each read must still equal the generic engine's.
func TestPackedAccumulatorFlush(t *testing.T) {
	for _, ring := range []bool{true, false} {
		c := diffConfig{ring: ring, n: 3, k: 1 << 20, stacked: true}
		gen, fast, _ := buildArms(t, c, xrand.New(3))
		runPackedOps(t, c, gen, []*System{fast}, windowOps(1, 9000, 9000, 1), 1<<16)
	}
}

// TestPackedVisitsRebase stacks 2^42 agents on Ring(3) and on Path(3) and
// runs them in chunks to 2.5·10^6 rounds, comparing every node's visits and
// counts with the generic engine's after each chunk. The middle chunk
// alone moves k·2.2·10^6 > 2^63 agents, which only the packed state's
// re-base, a derivation every 2^62/(n·k) rounds, keeps exact; every node's
// visits still fit an int64. A last chunk of 4·10^5 held rounds, each
// holding a different share at every node, crosses a re-base too.
func TestPackedVisitsRebase(t *testing.T) {
	if testing.Short() {
		t.Skip("2.5·10^6 rounds on each arm")
	}
	const k = int64(1) << 42
	for _, g := range []*graph.Graph{graph.Ring(3), graph.Path(3)} {
		counts := []int64{0, k, 0}
		mk := func(mode KernelMode) *System {
			return newTestSystem(t, g, WithAgentCounts(counts), WithKernelMode(mode))
		}
		gen, fast := mk(KernelGeneric), mk(KernelFast)
		hold := func(v int, c int64) int64 { return c / int64(2+v) }
		for _, chunk := range []struct {
			rounds int64
			held   bool
		}{{100_003, false}, {2_200_000, false}, {199_997, false}, {400_000, true}} {
			if chunk.held {
				for i := int64(0); i < chunk.rounds; i++ {
					gen.StepHeldFunc(hold)
					fast.StepHeldFunc(hold)
				}
			} else {
				gen.Run(chunk.rounds)
				fast.Run(chunk.rounds)
			}
			if !fast.st.Packed() {
				t.Fatalf("%s: no packed state after Run", fast.KernelName())
			}
			for v := 0; v < 3; v++ {
				if a, b := gen.Visits(v), fast.Visits(v); a != b {
					t.Fatalf("%s round %d: visits at node %d: generic %d, packed %d", fast.KernelName(), gen.Round(), v, a, b)
				}
				if a, b := gen.AgentsAt(v), fast.AgentsAt(v); a != b {
					t.Fatalf("%s round %d: agents at node %d: generic %d, packed %d", fast.KernelName(), gen.Round(), v, a, b)
				}
			}
		}
	}
}

// TestPackedVisitsMidRun reads visits at random points of packed runs on
// rings and paths at word boundaries, from stacked and random starts, and
// keeps stepping packed: each read derives the visits and moves the
// packed state's base while the state stays packed, and reads of counts,
// pointers and the hash between them leave the visits pending. Packed
// held rounds interleave with the runs, half of them holding every agent,
// so that visits must derive from the moves made and not from k·rounds.
// Every value read must equal the generic engine's.
func TestPackedVisitsMidRun(t *testing.T) {
	rng := xrand.New(0x7157)
	for _, n := range []int{2, 3, 63, 64, 65, 127, 128, 129, 1000} {
		for _, ring := range []bool{true, false} {
			if ring && n < 3 {
				continue
			}
			for i, k := range []int{max(1, n/8), n - 1, 4*n + 1} {
				c := diffConfig{ring: ring, n: n, k: k, hash: i == 1, stacked: rng.Bool()}
				gen, fast, _ := buildArms(t, c, rng)
				for op := 0; op < 30; op++ {
					if rng.Intn(3) == 0 {
						hold := holdAll
						if rng.Bool() {
							hold = holdSome(rng.Uint64())
						}
						gen.StepHeldFunc(hold)
						fast.StepHeldFunc(hold)
					}
					r := int64(1 + rng.Intn(min(3*n, 400)))
					gen.Run(r)
					fast.Run(r)
					round := int(gen.Round())
					switch rng.Intn(3) {
					case 0:
						for j := 0; j < 1+rng.Intn(4); j++ {
							v := rng.Intn(n)
							if a, b := gen.Visits(v), fast.Visits(v); a != b {
								t.Fatalf("%v round %d: visits at node %d: generic %d, packed %d", c, round, v, a, b)
							}
						}
					case 1:
						v := rng.Intn(n)
						if gen.AgentsAt(v) != fast.AgentsAt(v) || gen.Pointer(v) != fast.Pointer(v) ||
							gen.ConfigHash() != fast.ConfigHash() {
							t.Fatalf("%v round %d: configuration differs at node %d", c, round, v)
						}
					}
					if !fast.st.Packed() {
						t.Fatalf("%v round %d: a read dropped the packed state", c, round)
					}
				}
				compareSystems(t, c, int(gen.Round()), gen, fast)
			}
		}
	}
}

// holdAll holds every agent; holdSome(salt) holds a pseudo-random share of
// each node's agents, a function of the node alone, so that every arm
// holds the same agents in whatever order it asks.
func holdAll(_ int, c int64) int64 { return c }

func holdSome(salt uint64) func(v int, c int64) int64 {
	return func(v int, c int64) int64 { return int64(xrand.Mix64(salt+uint64(v)) % uint64(c+1)) }
}

// TestPackedHeldPlaneDrop follows packed rounds of piled-up agents with
// held rounds that let at most one agent leave each node, so that the
// movers' plane count drops by two or more below the previous round's and
// the arrivals land on planes that still hold an older round's counts;
// packed fully-active rounds follow. Rings and paths at word boundaries,
// from piles of up to 2^9 agents, are compared with the generic engine
// after every round.
func TestPackedHeldPlaneDrop(t *testing.T) {
	rng := xrand.New(0xd209)
	for _, n := range []int{3, 63, 64, 65, 129} {
		for _, ring := range []bool{true, false} {
			for _, k := range []int{40, 600} {
				c := diffConfig{ring: ring, n: n, k: k, stacked: true}
				gen, fast, _ := buildArms(t, c, rng)
				for cycle := 0; cycle < 8; cycle++ {
					for r := rng.Intn(3); r >= 0; r-- {
						gen.Step()
						fast.Step()
						compareSystems(t, c, int(gen.Round()), gen, fast)
					}
					// All agents but one stay at most nodes, all of them at
					// the rest.
					salt := rng.Uint64()
					hold := func(v int, m int64) int64 { return m - int64(xrand.Mix64(salt+uint64(v))&1) }
					for r := rng.Intn(2); r >= 0; r-- {
						gen.StepHeldFunc(hold)
						fast.StepHeldFunc(hold)
						if !fast.st.Packed() {
							t.Fatalf("%v: a held round left the packed state", c)
						}
						compareSystems(t, c, int(gen.Round()), gen, fast)
					}
				}
			}
		}
	}
}

// TestHeldAsksOncePerOccupiedNode checks the hold callback's contract on
// both held paths, the packed held round and the generic loop: a held
// round asks once for every occupied node, with its count at the start of
// the round, and never for an empty node; the packed round asks in node
// order. Rings and paths at word boundaries, from random and stacked
// starts, take held rounds between fully-active runs.
func TestHeldAsksOncePerOccupiedNode(t *testing.T) {
	rng := xrand.New(0xa5c)
	for _, n := range []int{2, 3, 63, 64, 65, 130} {
		for _, ring := range []bool{true, false} {
			if ring && n < 3 {
				continue
			}
			for _, k := range []int{1, n/4 + 1, 3 * n} {
				c := diffConfig{ring: ring, n: n, k: k, stacked: rng.Bool()}
				gen, fast, _ := buildArms(t, c, rng)
				for op := 0; op < 20; op++ {
					hold := holdSome(rng.Uint64())
					for _, s := range []*System{gen, fast} {
						counts := make([]int64, n)
						for v := range counts {
							counts[v] = s.AgentsAt(v)
						}
						asked, last := make([]bool, n), -1
						s.StepHeldFunc(func(v int, cnt int64) int64 {
							switch {
							case asked[v]:
								t.Fatalf("%v on %s: node %d asked twice", c, s.KernelName(), v)
							case cnt != counts[v] || cnt == 0:
								t.Fatalf("%v on %s: node %d asked with %d agents, has %d", c, s.KernelName(), v, cnt, counts[v])
							case s == fast && v < last:
								t.Fatalf("%v: the packed held round asked node %d after %d", c, v, last)
							}
							asked[v], last = true, v
							return hold(v, cnt)
						})
						for v, cnt := range counts {
							if cnt > 0 && !asked[v] {
								t.Fatalf("%v on %s: occupied node %d never asked", c, s.KernelName(), v)
							}
						}
					}
					if !fast.st.Packed() {
						t.Fatalf("%v: the forced kernel's held round did not run packed", c)
					}
					compareSystems(t, c, int(gen.Round()), gen, fast)
					r := int64(rng.Intn(n))
					gen.Run(r)
					fast.Run(r)
				}
			}
		}
	}
}

// TestFindLimitCyclePacked checks the cycle search on the packed tier,
// whose equality compares words and never rehashes, against the generic
// engine's hash-and-compare: period, μ and the detection round must agree
// on rings and paths at word boundaries, from random and stacked starts,
// and the μ search must start from Brent's snapshot on enough of them.
func TestFindLimitCyclePacked(t *testing.T) {
	rng := xrand.New(0x11c7)
	const budget = 1 << 24
	var fromSnapshot, fromStart, packedSearches int
	for trial := 0; trial < 56; trial++ {
		n := packedSizes[1+trial%7] // 3 to 129 nodes
		c := diffConfig{ring: trial%2 == 0, n: n, stacked: trial%3 == 0}
		c.k = []int{max(1, n/16), max(1, n/4), n, 3 * n}[trial%4]
		gen, fast, _ := buildArms(t, c, rng)
		if trial%5 == 0 {
			pre := int64(rng.Intn(4 * n))
			gen.Run(pre)
			fast.Run(pre)
		}
		start := gen.Round()
		want, err := FindLimitCycle(gen, budget, true)
		if err != nil {
			t.Fatalf("%v: generic: %v", c, err)
		}
		got, err := FindLimitCycle(fast, budget, true)
		if err != nil {
			t.Fatalf("%v: packed: %v", c, err)
		}
		if *got != *want {
			t.Fatalf("%v: packed limit cycle %+v, generic %+v", c, *got, *want)
		}
		if fast.st.Packed() {
			packedSearches++
		}
		// Brent's power at detection decides where the μ search starts.
		if power := want.DetectedAt - start - want.Period + 1; 2*want.Period <= power {
			fromSnapshot++
		} else {
			fromStart++
		}
		compareSystems(t, c, int(gen.Round()), gen, fast)
	}
	t.Logf("%d packed searches; μ searched from the snapshot %d times, from the start %d", packedSearches, fromSnapshot, fromStart)
	if packedSearches < 40 || fromSnapshot < 10 || fromStart < 4 {
		t.Fatal("the sample misses the packed tier or a branch of the μ search")
	}
}

// TestPackedViewAcrossWrites checks the lazy view around writes on a ring
// of 130 nodes: a packed system materializes for reads and keeps its packed
// state, every mutation drops it, the flow view of the last packed round
// survives AddAgents, RemoveAgents and ResetCoverage, and a stale hash is
// brought up to date before a mutation applies its delta. The 62 agents
// grow to 65, so the next packed round repacks with a wider plane stride.
func TestPackedViewAcrossWrites(t *testing.T) {
	g := graph.Ring(130)
	positions := RandomPositions(130, 62, xrand.New(130))
	mk := func(mode KernelMode) *System {
		s := newTestSystem(t, g, WithAgentsAt(positions...), WithKernelMode(mode))
		s.EnableConfigHash()
		return s
	}
	c := diffConfig{ring: true, n: 130, k: 62, hash: true}
	gen, fast := mk(KernelGeneric), mk(KernelFast)
	for _, write := range []struct {
		name  string
		f     func(s *System, v int) error
		flows bool // the write keeps the flow view
	}{
		{"AddAgents", func(s *System, v int) error { return s.AddAgents(5, 5, 129) }, true},
		{"RemoveAgents", func(s *System, v int) error { return s.RemoveAgents(v) }, true},
		{"ResetCoverage", func(s *System, v int) error { s.ResetCoverage(); return nil }, true},
		{"SetPointers", func(s *System, v int) error { return s.SetPointers(PointersUniform(g, 1)) }, false},
		{"Rewire", func(s *System, v int) error { return s.Rewire(g, s.Pointers()) }, false},
	} {
		gen.Run(40)
		fast.Run(40)
		if !fast.st.Packed() {
			t.Fatalf("%s: no packed state after Run", write.name)
		}
		fast.AgentsAt(0)
		if !fast.st.Packed() {
			t.Fatalf("%s: a read dropped the packed state", write.name)
		}
		v := gen.Occupied()[1]
		if err := write.f(gen, v); err != nil {
			t.Fatal(err)
		}
		if err := write.f(fast, v); err != nil {
			t.Fatal(err)
		}
		if fast.st.Packed() {
			t.Fatalf("%s kept the packed state", write.name)
		}
		if got := flowsOf(t, fast); (len(got) > 0) != write.flows {
			t.Fatalf("%s: flow view %v after a packed round", write.name, got)
		}
		compareSystems(t, c, int(gen.Round()), gen, fast)
	}
}
