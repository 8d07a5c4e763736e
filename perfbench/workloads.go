package main

import (
	"fmt"
	"math/rand/v2"

	"rotorring/internal/engine"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// pass generates the sweep specs one library pass runs.
	pass func(rng *rand.Rand, tiny bool) []engine.SweepSpec
	// rotord: a traced run also drives an in-process rotord and cluster
	// worker, for the service and cluster layers.
	rotord bool
}

var workloads = []workload{
	{name: "paper-grid", pass: paperGrid},
	{name: "scenario-mix", pass: scenarioMix, rotord: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newRNG is the input generator for a workload seed. It is separate from
// the simulator's generators: the program under test receives only the
// specs it produces.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x7065726662656e63))
}

// paperScale is the ring sizes of paper-grid's four regimes.
type paperScale struct {
	sparse, dense, ret, walk []int
}

func paperSizes(tiny bool) paperScale {
	if tiny {
		return paperScale{sparse: []int{64}, dense: []int{64}, ret: []int{32}, walk: []int{32}}
	}
	return paperScale{sparse: []int{512, 1024}, dense: []int{512}, ret: []int{128, 256}, walk: []int{256, 512}}
}

// largestDenseCell is paper-grid's largest dense ring cell, which a traced
// run steps under every forced kernel tier.
func largestDenseCell(tiny bool) (n, k int) {
	dense := paperSizes(tiny).dense
	n = dense[len(dense)-1]
	return n, n / 2
}

// paperGrid is the paper's Table 1 on the ring: a few heavy sweeps that
// spend nearly all their time stepping. Rotor cover times with sparse k
// (the generic engine) and dense k >= n/8 (the ring kernel) from the worst,
// best and random starts; rotor return times from the deterministic starts
// (limit-cycle hashing at a seed-independent cost); walk cover times below
// and above k = 2n (the per-agent and counts tiers). The seed draws every
// sweep's base seed — random placements, random pointers, walk trials —
// and the order of the sweeps.
func paperGrid(rng *rand.Rand, tiny bool) []engine.SweepSpec {
	s := paperSizes(tiny)
	placements := []engine.Placement{engine.PlaceSingle, engine.PlaceEqual, engine.PlaceRandom}
	pointers := []engine.Pointer{engine.PtrToward, engine.PtrNegative, engine.PtrRandom}
	var specs []engine.SweepSpec
	for _, n := range s.sparse {
		specs = append(specs, engine.SweepSpec{Sizes: []int{n}, Agents: []int{2, 8, 32},
			Placements: placements, Pointers: pointers})
	}
	for _, n := range s.dense {
		specs = append(specs, engine.SweepSpec{Sizes: []int{n}, Agents: []int{n / 8, n / 2},
			Placements: placements, Pointers: pointers})
	}
	for _, n := range s.ret {
		specs = append(specs, engine.SweepSpec{Sizes: []int{n}, Agents: []int{2, 8, 32},
			Placements: placements[:2], Pointers: pointers[:2], Metric: engine.MetricReturn})
	}
	for _, n := range s.walk {
		specs = append(specs, engine.SweepSpec{Process: engine.ProcWalk, Sizes: []int{n},
			Agents: []int{4, 32, 4 * n}, Placements: singleRandom, Replicas: 4})
	}
	for i := range specs {
		specs[i].Topologies = []engine.Topo{"ring"}
		specs[i].Seed = rng.Uint64()
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// mixScale is what scenario-mix and the rotord submissions draw from.
type mixScale struct {
	// topologies holds one self-sized spec per family, indexed by the fam
	// constants.
	topologies []engine.Topo
	schedules  []engine.Schedule
	missions   []engine.Mission
	restab     engine.Schedule
	agents     []int
}

// Topology families, indexing mixScale.topologies.
const (
	famRing = iota
	famPath
	famGrid
	famTorus
	famRR
	famHypercube
	famLollipop
)

func mixSizes(tiny bool) mixScale {
	if tiny {
		return mixScale{
			topologies: []engine.Topo{"ring:16", "path:16", "grid:4x4", "torus:4x4", "rr:3x16", "hypercube:4", "lollipop:4x12"},
			schedules:  []engine.Schedule{"none", "delay:p=0.25", "edgefail:t=8,count=1", "churn:join=2@8,leave=1@16", "reset:t=8"},
			missions:   []engine.Mission{"explore", "patrol:horizon=128", "balance:horizon=128"},
			restab:     "edgefail:t=256",
			agents:     []int{2, 4},
		}
	}
	return mixScale{
		topologies: []engine.Topo{"ring:128", "path:128", "grid:12x12", "torus:12x12", "rr:3x128", "hypercube:7", "lollipop:16x112"},
		schedules:  []engine.Schedule{"none", "delay:p=0.25", "edgefail:t=64,count=2", "churn:join=4@64,leave=2@128", "reset:t=64"},
		missions:   []engine.Mission{"explore", "patrol:horizon=2048", "balance:horizon=2048"},
		restab:     "edgefail:t=4096",
		agents:     []int{2, 8, 32},
	}
}

// pick returns the topologies of the given families.
func (m mixScale) pick(families ...int) []engine.Topo {
	out := make([]engine.Topo, len(families))
	for i, f := range families {
		out[i] = m.topologies[f]
	}
	return out
}

var (
	singleRandom = []engine.Placement{engine.PlaceSingle, engine.PlaceRandom}
	singleEqual  = []engine.Placement{engine.PlaceSingle, engine.PlaceEqual}
	randomOnly   = []engine.Placement{engine.PlaceRandom}
	wideProbes   = []engine.ProbeSpec{{Name: "coverage", Stride: 16}, {Name: "histogram", Stride: 64}}
)

// scenarioMix is many light jobs, where the per-job layers carry a large
// share of the time: graph build and cache, System init and Reset, the
// schedule runner, the mission observer on the generic engine, wide-row
// encoding and the sink. Every topology family runs under every schedule
// family; beside them run missions, a re-stabilization sweep, a probe
// sweep (coverage and histogram series: wide rows) and walks. No cell runs
// to its round cap. Each (family, schedule) pair, mission and walk graph
// is its own sweep, so the sweep latencies rest on many sweeps. The seed
// draws the order of the sweeps only: their base seeds are fixed. With
// seeded base seeds a few random-start sweeps (re-stabilization, delay on
// the path) moved the cost of a whole pass by a tenth from seed to seed.
func scenarioMix(rng *rand.Rand, tiny bool) []engine.SweepSpec {
	m := mixSizes(tiny)
	var specs []engine.SweepSpec
	for _, t := range m.topologies {
		for _, sc := range m.schedules {
			specs = append(specs, engine.SweepSpec{Topologies: []engine.Topo{t}, Agents: m.agents,
				Placements: singleRandom, Pointers: []engine.Pointer{engine.PtrZero, engine.PtrRandom},
				Schedules: []engine.Schedule{sc}, Replicas: 2})
		}
	}
	for _, mi := range m.missions {
		specs = append(specs, engine.SweepSpec{Topologies: m.pick(famRing, famGrid, famTorus), Agents: m.agents,
			Placements: singleEqual, Pointers: []engine.Pointer{engine.PtrZero, engine.PtrNegative},
			Missions: []engine.Mission{mi}})
	}
	for _, t := range m.pick(famRing, famGrid, famHypercube) {
		specs = append(specs, engine.SweepSpec{Process: engine.ProcWalk, Topologies: []engine.Topo{t},
			Agents: m.agents, Placements: randomOnly, Replicas: 3})
	}
	specs = append(specs,
		engine.SweepSpec{Topologies: m.pick(famRing, famTorus), Agents: m.agents,
			Placements: randomOnly, Pointers: []engine.Pointer{engine.PtrRandom},
			Schedules: []engine.Schedule{m.restab}, Metric: engine.MetricRestab, Replicas: 2},
		engine.SweepSpec{Topologies: m.pick(famRing, famTorus), Agents: m.agents,
			Placements: singleRandom, Probes: wideProbes},
	)
	fixed := newRNG(0)
	for i := range specs {
		specs[i].Seed = fixed.Uint64()
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// submission is one POST of the traced rotord passes.
type submission struct {
	spec engine.SweepSpec
	wire []byte // the spec in wire form, as POSTed
	// enlarges is the index of the earlier submission whose grid this one
	// extends by a column of cells, or -1.
	enlarges int
}

// submissions generates the submission stream one traced rotord pass
// sends, in order: groups of three small sweeps of the scenario-mix shape, each with
// its own base seed, followed by a fourth that enlarges the grid of the
// group's first, so its overlapping cells replay from the row cache. Which
// topology, schedule and agent pairs the sweeps use is fixed by their
// count, so every seed sends the same mix of work; the seed draws the base
// seeds and the order of the groups.
func submissions(seed uint64, tiny bool, groups int) ([]submission, error) {
	rng := newRNG(seed)
	m := mixSizes(tiny)
	topos, scheds := pairsOf(m.topologies), pairsOf(m.schedules)
	order := rng.Perm(groups)
	subs := make([]submission, 0, 4*groups)
	for _, g := range order {
		first := len(subs)
		for j := 3 * g; j < 3*g+3; j++ {
			subs = append(subs, submission{enlarges: -1, spec: engine.SweepSpec{
				Agents:     m.agents,
				Seed:       rng.Uint64(),
				Topologies: topos[j%len(topos)],
				Placements: singleRandom,
				Schedules:  scheds[j%len(scheds)],
				Replicas:   2,
			}})
		}
		subs = append(subs, submission{enlarges: first, spec: enlarge(subs[first].spec)})
	}
	for i := range subs {
		wire, err := engine.EncodeWireSpec(subs[i].spec)
		if err != nil {
			return nil, fmt.Errorf("submission %d: %w", i, err)
		}
		subs[i].wire = wire
	}
	return subs, nil
}

// pairsOf returns every pair of distinct elements of xs, each in its order
// in xs.
func pairsOf[T any](xs []T) [][]T {
	var out [][]T
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			out = append(out, []T{xs[i], xs[j]})
		}
	}
	return out
}

// enlarge returns s with one more agent count: the grid grows by a column
// of cells, and every cell of s keeps its job key.
func enlarge(s engine.SweepSpec) engine.SweepSpec {
	s.Agents = append(append([]int(nil), s.Agents...), 2*s.Agents[len(s.Agents)-1])
	return s
}

// reversed returns s with its agent axis reversed: a new sweep id over the
// same jobs, which a rotord that ran s serves entirely from its row cache.
func reversed(s engine.SweepSpec) engine.SweepSpec {
	agents := make([]int, len(s.Agents))
	for i, k := range s.Agents {
		agents[len(agents)-1-i] = k
	}
	s.Agents = agents
	return s
}

func specsOf(subs []submission) []engine.SweepSpec {
	specs := make([]engine.SweepSpec, len(subs))
	for i, s := range subs {
		specs[i] = s.spec
	}
	return specs
}
