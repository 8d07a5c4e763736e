package core

import (
	"math"
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// linearDiscrepancyBound is c₁ ≈ 2.29 of Cooper, Doerr, Spencer and Tardos,
// "Deterministic Random Walks on the Integers": from any configuration
// whose chips all sit on one parity class, the rotor-router on ℤ holds
// within c₁ of the linear machine's expected count at every node and time.
const linearDiscrepancyBound = 2.29

// TestLinearMachineDiscrepancy is a theory oracle. Agents start on an even
// ring, all on nodes of one parity inside an arc of length L < n/2, with
// random pointers. The linear machine f₀ = initial counts, f_{t+1}(v) =
// (f_t(v−1) + f_t(v+1))/2 spreads by one node per round each way, as do
// the agents, so while 2t < n − L the two fronts never meet and the ring is
// ℤ; there |agents(v, t) − f_t(v)| ≤ c₁ at every node. Every tier is
// checked, stepped round by round and in Run chunks, so sparse rings take
// interaction-free windows. Agents on both parities share the rotors of
// every node, which is outside the theorem, and can exceed c₁; they are
// not drawn.
func TestLinearMachineDiscrepancy(t *testing.T) {
	rng := xrand.New(0xcd57)
	var windowRounds int64
	worst := 0.0
	for trial := 0; trial < 60; trial++ {
		n := 2 * (8 + rng.Intn(250))
		L := 1 + rng.Intn(n/2-1)
		first := rng.Intn(n)
		// The arc's nodes of first's parity: first, first+2, … < first+L.
		var slots []int
		for d := 0; d < L; d += 2 {
			slots = append(slots, (first+d)%n)
		}
		counts := make([]int64, n)
		var k int64
		switch trial % 3 {
		case 0: // a few agents, so that sparse rings open windows
			k = 1 + int64(rng.Intn(min(4, len(slots))))
			for _, i := range rng.Perm(len(slots))[:k] {
				counts[slots[i]]++
			}
		case 1: // stacked on one node
			k = 1 + int64(rng.Intn(64*n))
			counts[slots[rng.Intn(len(slots))]] = k
		default: // spread at random
			k = 1 + int64(rng.Intn(64*n))
			for i := int64(0); i < k; i++ {
				counts[slots[rng.Intn(len(slots))]]++
			}
		}
		g := graph.Ring(n)
		pointers := PointersRandom(g, rng)
		build := func(opts ...Option) *System {
			return newTestSystem(t, g, append([]Option{WithAgentCounts(counts), WithPointers(pointers)}, opts...)...)
		}
		modes := []Option{
			WithKernelMode(KernelGeneric),
			WithKernelMode(KernelAuto),
			WithKernelMode(KernelFast),
			WithKernelMode(KernelParallel),
		}
		var stepped, chunked []*System
		for _, m := range modes {
			stepped = append(stepped, build(m, WithParallelShards(2)))
			chunked = append(chunked, build(m, WithParallelShards(2)))
		}

		f := make([]float64, n)
		for v, c := range counts {
			f[v] = float64(c)
		}
		next := make([]float64, n)
		check := func(s *System) {
			for v := 0; v < n; v++ {
				d := math.Abs(float64(s.AgentsAt(v)) - f[v])
				worst = max(worst, d)
				if d > linearDiscrepancyBound {
					t.Fatalf("ring(%d), counts %v, pointers %v, kernel %s: round %d node %d holds %d agents, linear machine %.4f",
						n, counts, pointers, s.KernelName(), s.Round(), v, s.AgentsAt(v), f[v])
				}
			}
		}
		horizon := int64(n-L-1) / 2 // the largest t with 2t < n − L
		for t0 := int64(0); t0 < horizon; {
			chunk := min(horizon-t0, 1+int64(rng.Intn(64)))
			for i := int64(0); i < chunk; i++ {
				for v := range next {
					next[v] = (f[(v+n-1)%n] + f[(v+1)%n]) / 2
				}
				f, next = next, f
				for _, s := range stepped {
					s.Step()
					check(s)
				}
			}
			t0 += chunk
			for _, s := range chunked {
				s.Run(chunk)
				check(s)
			}
		}
		for _, s := range chunked {
			windowRounds += s.windowRounds
		}
	}
	if windowRounds == 0 {
		t.Fatal("no interaction-free window ran")
	}
	t.Logf("largest discrepancy %.4f (bound %.2f); %d rounds ran in windows", worst, linearDiscrepancyBound, windowRounds)
}
