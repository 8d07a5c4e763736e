package core

import (
	"maps"
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/kernel"
	"rotorring/internal/xrand"
)

// referenceFlows computes a round's flows from its start-of-round pointers
// and agent counts by sending the movers one at a time, straight from the
// round rule: the i-th agent leaving v takes port (π_v + i) mod deg(v).
func referenceFlows(g *graph.Graph, ptr []int, agents, held []int64) map[arc]int64 {
	out := map[arc]int64{}
	for v, c := range agents {
		m := c
		if held != nil {
			m -= min(max(held[v], 0), c)
		}
		d := g.Degree(v)
		for i := int64(0); i < m; i++ {
			out[arc{v, (ptr[v] + int(i)) % d}]++
		}
	}
	return out
}

// TestFlowViewMatchesReference checks ForEachFlow against the round rule on
// every tier — generic, serial fast, parallel at several shard counts and
// the sparse degree-2 round — over rings, paths, tori and grids, mixing
// plain, held and generic StepHeld(nil) rounds. The sparse arm (KernelAuto
// with k at most maxSparseK) also steps a generic twin and must match its
// occupied list, in order, every round.
func TestFlowViewMatchesReference(t *testing.T) {
	rng := xrand.New(0xf10e)
	for trial := 0; trial < 80; trial++ {
		n := 8 + rng.Intn(60)
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = graph.Ring(n)
		case 1:
			g = graph.Path(n)
		case 2:
			g = graph.Torus2D(3+rng.Intn(4), 3+rng.Intn(4))
		default:
			g = graph.Grid2D(2+rng.Intn(4), 2+rng.Intn(4))
		}
		n = g.NumNodes()
		mode := []KernelMode{KernelGeneric, KernelFast, KernelParallel, KernelAuto}[rng.Intn(4)]
		k := 1 + rng.Intn(4*n)
		if mode == KernelAuto {
			k = 1 + rng.Intn(max(1, maxSparseK(n)))
		}
		positions := RandomPositions(n, k, rng)
		pointers := PointersRandom(g, rng)
		opts := []Option{WithAgentsAt(positions...), WithPointers(pointers)}
		s := newTestSystem(t, g, append(opts, WithKernelMode(mode), WithParallelShards(1+rng.Intn(4)))...)
		var twin *System
		if mode == KernelAuto {
			if shape := kernel.DetectShape(g); shape != kernel.ShapeGeneral && s.KernelName() != shape.String()+"-sparse" {
				t.Fatalf("%s k=%d: auto selected %q, want the sparse %v round", g.Name(), k, s.KernelName(), shape)
			}
			twin = newTestSystem(t, g, append(opts, WithKernelMode(KernelGeneric))...)
		}
		if got := flowsOf(t, s); len(got) != 0 {
			t.Fatalf("%s: fresh system reports flows %v", g.Name(), got)
		}
		held := make([]int64, n)
		agents := make([]int64, n)
		for r := 1; r <= 40; r++ {
			for v := range agents {
				agents[v] = s.AgentsAt(v)
				held[v] = int64(rng.Intn(3)) - 1 // -1 exercises the clamp at zero
			}
			ptr := s.Pointers()
			var h []int64
			switch rng.Intn(3) {
			case 0:
				s.StepHeld(held)
				h = held
			case 1:
				s.StepHeld(nil)
			default:
				s.Step()
			}
			if got, want := flowsOf(t, s), referenceFlows(g, ptr, agents, h); !maps.Equal(got, want) {
				t.Fatalf("%s %s round %d (kernel %s): flows %v, want %v",
					g.Name(), mode, r, s.KernelName(), got, want)
			}
			if twin != nil {
				twin.StepHeld(h)
				if a, b := twin.Occupied(), s.Occupied(); !equalInts(a, b) {
					t.Fatalf("%s round %d (kernel %s): occupied %v, generic %v", g.Name(), r, s.KernelName(), b, a)
				}
			}
		}
	}
}

// TestFlowViewAfterMutations pins what each between-round mutation does to
// the view, after a generic round, a kernel round, a packed held round and
// a sparse round:
// SetPointers, Rewire and Reset empty it (they move the pointers flows are
// derived from), a Clone starts empty, and AddAgents, RemoveAgents and
// ResetCoverage leave it equal to the last round's flows.
func TestFlowViewAfterMutations(t *testing.T) {
	g := graph.Ring(32)
	positions := RandomPositions(32, 48, xrand.New(32))
	held := make([]int64, 32)
	for v := range held {
		held[v] = int64(v % 2)
	}
	rounds := map[string]func(s *System){
		"generic": func(s *System) { s.StepHeld(nil) },
		"kernel":  func(s *System) { s.Step() },
		"held":    func(s *System) { s.StepHeld(held) },
		"sparse":  func(s *System) { s.Step() },
	}
	// The sparse round runs under KernelAuto on a population in the
	// windows' band; the others force the kernel.
	build := func(rname string) *System {
		if rname == "sparse" {
			s := newTestSystem(t, g, WithAgentsAt(positions[:maxSparseK(32)]...))
			if s.KernelName() != "ring-sparse" {
				t.Fatalf("sparse round: kernel %q", s.KernelName())
			}
			return s
		}
		return newTestSystem(t, g, WithAgentsAt(positions...), WithKernelMode(KernelFast))
	}
	mutations := map[string]struct {
		apply func(t *testing.T, s *System)
		empty bool
	}{
		"SetPointers":   {func(t *testing.T, s *System) { must(t, s.SetPointers(PointersUniform(g, 1))) }, true},
		"Rewire":        {func(t *testing.T, s *System) { must(t, s.Rewire(g, s.Pointers())) }, true},
		"Reset":         {func(t *testing.T, s *System) { s.Reset() }, true},
		"AddAgents":     {func(t *testing.T, s *System) { must(t, s.AddAgents(3, 3)) }, false},
		"RemoveAgents":  {func(t *testing.T, s *System) { must(t, s.RemoveAgents(s.Occupied()[0])) }, false},
		"ResetCoverage": {func(t *testing.T, s *System) { s.ResetCoverage() }, false},
	}
	for rname, round := range rounds {
		for mname, mut := range mutations {
			s := build(rname)
			s.Run(5)
			round(s)
			before := flowsOf(t, s)
			if len(before) == 0 {
				t.Fatalf("%s round reported no flows", rname)
			}
			mut.apply(t, s)
			got := flowsOf(t, s)
			if mut.empty && len(got) != 0 {
				t.Errorf("%s after a %s round: view %v, want empty", mname, rname, got)
			}
			if !mut.empty && !maps.Equal(got, before) {
				t.Errorf("%s after a %s round: view %v, want the round's %v", mname, rname, got, before)
			}
		}
		s := build(rname)
		round(s)
		if got := flowsOf(t, s.Clone()); len(got) != 0 {
			t.Errorf("Clone after a %s round: view %v, want empty", rname, got)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
