package engine

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/kernel"
)

// TestKernelNeverAffectsRotorResults runs the same rotor sweep on every
// kernel tier and asserts byte-identical rows: the specialized kernels and
// the sparse degree-2 rounds are bit-identical to the generic engine, and
// the Kernel knob deliberately stays out of seed derivation. Both metrics
// run rings and a path with cells in every band of automatic selection, so
// the auto arm steps the packed round with packed held rounds (k ≥ n/4), the
// packed round with generic held rounds (n/32 ≤ k < n/4) and the sparse
// rounds alike, and sparse cells on each side of the window entry rule, so
// that Run and RunUntilCovered take interaction-free windows in some of
// them. The cover cells run again under delayed deployments: held rounds
// below n/4 and of the generic arm run the generic loop, which asks for
// holds in occupied-list order, and the rest the packed held round, which
// asks in node order, so equal rows pin the two orders against each other
// end to end. Under -short the grid drops its densest population, and the
// delay schedules and the return metric its largest ring; each grid still
// straddles every threshold, so every tier, both delay schedules and the
// return metric keep their byte-equality checks.
func TestKernelNeverAffectsRotorResults(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring", "path"},
		Sizes:      []int{24, 48, 256},
		Agents:     []int{1, 2, 6, 96},
		Placements: []Placement{PlaceSingle, PlaceEqual, PlaceRandom},
		Pointers:   []Pointer{PtrNegative, PtrRandom},
		Replicas:   2,
		Seed:       11,
	}
	if testing.Short() {
		spec.Agents = []int{1, 2, 6}
	}
	marshal := func(k Kernel) string {
		spec.Kernel = k
		rows, err := New(Workers(2)).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Err != "" {
				t.Fatalf("%v cell %+v: %s", k, r.Cell, r.Err)
			}
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// straddles checks that the grid has cells in every band; with sparse
	// set, also below the packed threshold outside the windows' band.
	straddles := func(sparseBand bool) {
		t.Helper()
		var windows, sparse, packed, dense int
		for _, n := range spec.Sizes {
			for _, k := range spec.Agents {
				switch {
				case k >= n/kernel.DenseFraction:
					dense++
				case n >= core.WindowSpread*k*k:
					windows++
				case k < n/kernel.PackedFraction:
					sparse++
				default:
					packed++
				}
			}
		}
		if windows == 0 || windows+sparse == 0 || packed == 0 || dense == 0 {
			t.Fatalf("sizes %v and agents %v do not straddle the density thresholds and the window entry rule",
				spec.Sizes, spec.Agents)
		}
		if sparseBand && sparse == 0 {
			t.Fatalf("sizes %v and agents %v have no sparse cell outside the windows' band", spec.Sizes, spec.Agents)
		}
	}
	straddles(true)
	auto, generic, fast := marshal(KernelAuto), marshal(KernelGeneric), marshal(KernelFast)
	if auto != generic || generic != fast {
		t.Fatal("kernel selection changed sweep results")
	}
	if par := marshal(KernelParallel); par != fast {
		t.Fatal("parallel kernel changed sweep results")
	}

	spec.Schedules = []Schedule{"delay:p=0.25", "delay:p=0.5,until=64"}
	if testing.Short() {
		// The largest ring only adds a sparse cell outside the windows'
		// band, whose held rounds run the generic loop like the others.
		spec.Sizes = spec.Sizes[:2]
	}
	straddles(false)
	if a, g, f := marshal(KernelAuto), marshal(KernelGeneric), marshal(KernelFast); a != g || g != f {
		t.Fatal("kernel selection changed delayed-deployment results")
	}
	spec.Schedules = nil

	// Return-time metric exercises cycle detection (hash-enabled clones)
	// and the period measurement, which reads the flow view.
	spec.Metric = MetricReturn
	spec.Agents = []int{2, 3, 24}
	spec.Placements = []Placement{PlaceEqual}
	spec.Pointers = []Pointer{PtrNegative}
	straddles(false)
	if a, g, f := marshal(KernelAuto), marshal(KernelGeneric), marshal(KernelFast); a != g || g != f {
		t.Fatal("kernel selection changed return-time results")
	}
}

// TestKernelSystemsUnderMap runs specialized-kernel systems concurrently,
// one goroutine each; under `go test -race` this verifies the kernels share
// no hidden mutable state (the Stepper singletons must be stateless).
func TestKernelSystemsUnderMap(t *testing.T) {
	g := graph.Ring(96)
	cover := func(k int) (int64, error) {
		sys, err := core.NewSystem(g,
			core.WithAgentsAt(core.EquallySpaced(96, k)...),
			core.WithKernelMode(core.KernelFast))
		if err != nil {
			return 0, err
		}
		if name := sys.KernelName(); name != "ring" {
			return 0, fmt.Errorf("kernel %q, want ring", name)
		}
		return sys.RunUntilCovered(1 << 20)
	}
	covers := make([]int64, 32)
	errs := make([]error, len(covers))
	var wg sync.WaitGroup
	for i := range covers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			covers[i], errs[i] = cover(12 + i)
		}()
	}
	wg.Wait()
	// Same workload sequentially must agree exactly.
	for i, want := range covers {
		k := 12 + i
		if errs[i] != nil {
			t.Fatalf("k=%d: %v", k, errs[i])
		}
		got, err := cover(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("k=%d: parallel cover %d vs sequential %d", k, want, got)
		}
	}
}
