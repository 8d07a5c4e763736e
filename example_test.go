package rotorring_test

import (
	"fmt"

	"rotorring"
)

// The single-agent rotor-router on a ring with uniform pointers circulates
// deterministically: it covers the n-node ring in exactly n-1 rounds and
// settles into the Eulerian cycle of the symmetric ring (period 2n).
func Example_singleAgent() {
	g := rotorring.Ring(16)
	sim, err := rotorring.New(g, rotorring.RotorRouter()) // one agent at node 0, pointers at port 0
	if err != nil {
		panic(err)
	}
	cover, err := sim.CoverTime(0)
	if err != nil {
		panic(err)
	}
	ret, err := sim.(rotorring.ReturnTimeMeasurer).ReturnTime(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("cover:", cover)
	fmt.Println("period:", ret.Period)
	fmt.Println("return:", ret.ReturnTime)
	// Output:
	// cover: 15
	// period: 32
	// return: 30
}

// Multi-agent cover time depends dramatically on the initial placement —
// the central message of the paper's Table 1.
func ExampleNew_placements() {
	const n, k = 256, 4
	worst, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
		rotorring.Agents(k),
		rotorring.Place(rotorring.PlaceSingleNode),
		rotorring.Pointers(rotorring.PointerTowardStart))
	if err != nil {
		panic(err)
	}
	cw, err := worst.CoverTime(0)
	if err != nil {
		panic(err)
	}
	best, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
		rotorring.Agents(k),
		rotorring.Place(rotorring.PlaceEqualSpacing),
		rotorring.Pointers(rotorring.PointerNegative))
	if err != nil {
		panic(err)
	}
	cb, err := best.CoverTime(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("worst placement:", cw)
	fmt.Println("best placement:", cb)
	// Output:
	// worst placement: 9598
	// best placement: 2016
}

// The Lemma 13 profile describes how domain sizes decay with the distance
// from the exploration frontier in the worst case: a_i ≈ a_1/i, with
// a_1 = Θ(1/log k).
func ExampleDomainLimitProfile() {
	p, err := rotorring.DomainLimitProfile(16)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sum: %.3f\n", p.Sum())
	fmt.Printf("a_1 > a_8 > a_16: %v\n", p.A[1] > p.A[8] && p.A[8] > p.A[16])
	fmt.Printf("a_16 >= a_1/16: %v\n", p.A[16] >= p.A[1]/16)
	// Output:
	// sum: 1.000
	// a_1 > a_8 > a_16: true
	// a_16 >= a_1/16: true
}

// Domain tracking exposes the §2.2 structures: after stabilization the ring
// is partitioned into k near-equal domains.
func ExampleRotorSim_domains() {
	const n, k = 240, 4
	p, err := rotorring.New(rotorring.Ring(n), rotorring.RotorRouter(),
		rotorring.Agents(k),
		rotorring.Place(rotorring.PlaceEqualSpacing),
		rotorring.Pointers(rotorring.PointerNegative),
		rotorring.TrackDomains())
	if err != nil {
		panic(err)
	}
	sim := p.(*rotorring.RotorSim)
	sim.Run(int64(20 * n))
	part, err := sim.Domains()
	if err != nil {
		panic(err)
	}
	total := 0
	for _, d := range part.Domains {
		total += d.Size
	}
	fmt.Println("domains:", len(part.Domains))
	fmt.Println("nodes partitioned:", total == n)
	// Output:
	// domains: 4
	// nodes partitioned: true
}

// A sweep fans a grid of configurations across a deterministic parallel
// worker pool: results are identical for any worker count, so experiments
// scale to all cores without losing reproducibility.
func ExampleRunSweep() {
	rows, err := rotorring.RunSweep(rotorring.SweepSpec{
		Sizes:      []int{64, 128},
		Agents:     []int{2, 4},
		Placements: []rotorring.PlacementPolicy{rotorring.PlaceEqualSpacing},
		Pointers:   []rotorring.PointerPolicy{rotorring.PointerNegative},
	}, 8) // 8 workers
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Printf("n=%d k=%d cover=%.0f\n", r.N, r.K, r.Value)
	}
	// Output:
	// n=64 k=2 cover=496
	// n=64 k=4 cover=120
	// n=128 k=2 cover=2016
	// n=128 k=4 cover=496
}

// One sweep can mix graph families: parameterized topology specs fan a
// heterogeneous topology x size x k grid into a single row stream. Rows
// carry the resolved instance spec and graph metadata, so cross-topology
// output is self-describing. Seeded families (here rr, a random 3-regular
// graph) build deterministically from the sweep seed.
func ExampleRunSweep_mixedTopologies() {
	rows, err := rotorring.RunSweep(rotorring.SweepSpec{
		Topologies: []rotorring.Topo{"ring", "grid:8x4", "torus:8x8", "rr:3"},
		Sizes:      []int{64}, // applies to the axis-sized specs: ring, rr:3
		Agents:     []int{4},
		Placements: []rotorring.PlacementPolicy{rotorring.PlaceEqualSpacing},
		Seed:       7,
	}, 8)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Printf("%-10s n=%-4d edges=%-3d maxdeg=%d covered in %.0f rounds\n",
			r.Spec, r.N, r.Edges, r.MaxDegree, r.Value)
	}
	// Output:
	// ring:64    n=64   edges=64  maxdeg=2 covered in 15 rounds
	// grid:8x4   n=32   edges=52  maxdeg=4 covered in 123 rounds
	// torus:8x8  n=64   edges=128 maxdeg=4 covered in 70 rounds
	// rr:3x64    n=64   edges=96  maxdeg=3 covered in 69 rounds
}
