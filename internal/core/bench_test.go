package core

import (
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// Ablation benchmarks for two engine design choices: (1) the generic
// engine's batched per-node fan-out versus naive per-agent moves, and (2)
// the configuration hash's upkeep. Incremental hashing serves the
// occupied-list rounds (generic, sparse, windows), which touch O(occupied)
// nodes; kernel rounds leave the hash stale, and core rehashes in full
// when it is next read.

// BenchmarkAblationBatchedStep: the generic engine, forced because a dense
// ring would select the packed kernel, with many agents stacked on few nodes
// (the regime the batching targets). Each iteration replays a fixed
// 32-round window from the stacked start so the regime cannot drift as the
// benchmark runs longer.
func BenchmarkAblationBatchedStep(b *testing.B) {
	g := graph.Ring(1024)
	sys, err := NewSystem(g, WithAgentsAt(AllOnNode(0, 1024)...), WithKernelMode(KernelGeneric))
	if err != nil {
		b.Fatal(err)
	}
	if got := sys.KernelName(); got != "generic" {
		b.Fatalf("kernel %q, want generic", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		for j := 0; j < 32; j++ {
			sys.Step()
		}
	}
}

// BenchmarkAblationNaiveStep: the reference implementation from the tests,
// same fixed 32-round window.
func BenchmarkAblationNaiveStep(b *testing.B) {
	g := graph.Ring(1024)
	ptr := make([]int, 1024)
	starts := AllOnNode(0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := newRefSystem(g, ptr, starts)
		for j := 0; j < 32; j++ {
			ref.step()
		}
	}
}

// BenchmarkAblationIncrementalHash: on the sparse ring round, hash
// maintenance cost is already in Step; this measures reading it.
func BenchmarkAblationIncrementalHash(b *testing.B) {
	g := graph.Ring(4096)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(4096, 32)...))
	if err != nil {
		b.Fatal(err)
	}
	var h uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
		h = sys.ConfigHash()
	}
	_ = h
}

// BenchmarkAblationFullRehash: the alternative — recompute the hash from
// scratch every round, as a cycle detector without incremental hashing
// would have to.
func BenchmarkAblationFullRehash(b *testing.B) {
	g := graph.Ring(4096)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(4096, 32)...))
	if err != nil {
		b.Fatal(err)
	}
	var h uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
		h = sys.fullHash()
	}
	_ = h
}

// BenchmarkStepSparseAgents: engine throughput with few, spread-out agents.
func BenchmarkStepSparseAgents(b *testing.B) {
	g := graph.Ring(1 << 16)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(1<<16, 8)...))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkFindLimitCycle: end-to-end cost of cycle detection, without μ
// on Ring(256) with k = 4 (the sparse round) and on Ring(128) with k = 32,
// the shape of the paper-grid return cells, which run the packed round and
// compare words instead of hashing, and with μ on a restab cell's shape
// after its fault: Ring(128) with one edge masked and k = 32 (the generic
// engine).
func BenchmarkFindLimitCycle(b *testing.B) {
	ring := graph.Ring(128)
	deleted := make([]bool, ring.NumArcs())
	deleted[0] = true
	cut, _, err := graph.MaskEdges(ring, deleted)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		g         *graph.Graph
		k         int
		computeMu bool
	}{
		{"ring256-k4", graph.Ring(256), 4, false},
		{"ring128-k32", graph.Ring(128), 32, false},
		{"cutring128-k32-mu", cut, 32, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := xrand.New(1)
			n := bc.g.NumNodes()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(bc.g,
					WithAgentsAt(RandomPositions(n, bc.k, rng)...),
					WithPointers(PointersRandom(bc.g, rng)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := FindLimitCycle(sys, 1<<24, bc.computeMu); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackedReads times one packed round and a read on Ring(512) with
// k = 64 from a random start: the configuration hash, which a quiesce
// mission reads every round, and every node's visits, which X7 reads every
// round. The hash reads counts and pointers alone; the visits are derived
// once a round, on the first read.
func BenchmarkPackedReads(b *testing.B) {
	const n, k = 512, 64
	g := graph.Ring(n)
	for _, bc := range []struct {
		name string
		read func(s *System) uint64
	}{
		{"step+hash", func(s *System) uint64 { return s.ConfigHash() }},
		{"step+visits", func(s *System) uint64 {
			var sum uint64
			for v := 0; v < n; v++ {
				sum += uint64(s.Visits(v))
			}
			return sum
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := xrand.New(1)
			sys, err := NewSystem(g, WithAgentsAt(RandomPositions(n, k, rng)...),
				WithPointers(PointersRandom(g, rng)))
			if err != nil {
				b.Fatal(err)
			}
			if got := sys.KernelName(); got != "ring" {
				b.Fatalf("kernel %q, want ring", got)
			}
			sys.Run(n)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step()
				sink += bc.read(sys)
			}
			_ = sink
		})
	}
}
