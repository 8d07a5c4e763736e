// Package engine is the deterministic parallel experiment engine: it fans a
// grid of sweep configurations (topology, size, agent count, placement,
// pointer policy, replicas) across a pool of workers, each reusing a cloned
// core.System, and streams the results in a canonical order into pluggable
// sinks. Results are bit-identical regardless of worker count or goroutine
// scheduling: every job's seed is derived from its grid coordinates (never
// from execution order), and rows are re-sequenced into job order before
// they reach a sink.
package engine

import (
	"fmt"
	"math"
	"strings"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/xrand"
	"rotorring/probe"
)

// ProbeSpec selects one registered probe and its sampling stride for a
// sweep (see rotorring/probe for the registry and the built-ins:
// coverage, histogram, domains).
type ProbeSpec struct {
	// Name is the registered probe name.
	Name string `json:"name"`
	// Stride is the sampling period in rounds (>= 1).
	Stride int64 `json:"stride"`
}

// Placement selects the initial agent positions of a sweep cell (the root
// package's PlacementPolicy).
type Placement int

// Placements.
const (
	// PlaceSingle puts all k agents on node 0 (the paper's worst case).
	PlaceSingle Placement = iota + 1
	// PlaceEqual spreads the agents at positions floor(i*n/k) (best case).
	PlaceEqual
	// PlaceRandom samples k independent uniform positions from the job
	// seed.
	PlaceRandom
)

// ParsePlacement converts a flag string (single|equal|random).
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(s) {
	case "single":
		return PlaceSingle, nil
	case "equal":
		return PlaceEqual, nil
	case "random":
		return PlaceRandom, nil
	default:
		return 0, fmt.Errorf("engine: unknown placement %q (single|equal|random)", s)
	}
}

func (p Placement) String() string {
	switch p {
	case PlaceSingle:
		return "single"
	case PlaceEqual:
		return "equal"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Positions returns the initial positions of k agents on g under the
// placement, drawing from rng for PlaceRandom.
func (p Placement) Positions(g *graph.Graph, k int, rng *xrand.Rand) ([]int, error) {
	switch p {
	case PlaceSingle:
		return core.AllOnNode(0, k), nil
	case PlaceEqual:
		return core.EquallySpaced(g.NumNodes(), k), nil
	case PlaceRandom:
		return core.RandomPositions(g.NumNodes(), k, rng), nil
	default:
		return nil, fmt.Errorf("engine: invalid placement %d", int(p))
	}
}

// Pointer selects the initial port-pointer arrangement of a sweep cell
// (rotor-router only; the root package's PointerPolicy).
type Pointer int

// Pointer arrangements.
const (
	// PtrZero leaves every pointer at port 0.
	PtrZero Pointer = iota + 1
	// PtrNegative points every node toward its nearest starting agent
	// (the adversarial barrier of Theorem 4).
	PtrNegative
	// PtrToward points every node toward node 0 along shortest paths
	// (with PlaceSingle, the Theta(n^2/log k) worst case of Theorem 1).
	PtrToward
	// PtrRandom samples uniform pointers from the job seed.
	PtrRandom
)

// ParsePointer converts a flag string (zero|negative|toward|random).
func ParsePointer(s string) (Pointer, error) {
	switch strings.ToLower(s) {
	case "zero":
		return PtrZero, nil
	case "negative":
		return PtrNegative, nil
	case "toward":
		return PtrToward, nil
	case "random":
		return PtrRandom, nil
	default:
		return 0, fmt.Errorf("engine: unknown pointer policy %q (zero|negative|toward|random)", s)
	}
}

func (p Pointer) String() string {
	switch p {
	case PtrZero:
		return "zero"
	case PtrNegative:
		return "negative"
	case PtrToward:
		return "toward"
	case PtrRandom:
		return "random"
	default:
		return fmt.Sprintf("pointer(%d)", int(p))
	}
}

// Pointers returns the initial pointer arrangement of g for agents
// starting at positions, drawing from rng for PtrRandom.
func (p Pointer) Pointers(g *graph.Graph, positions []int, rng *xrand.Rand) ([]int, error) {
	switch p {
	case PtrZero:
		return core.PointersUniform(g, 0), nil
	case PtrNegative:
		return core.PointersNegative(g, positions)
	case PtrToward:
		return core.PointersTowardNode(g, 0)
	case PtrRandom:
		return core.PointersRandom(g, rng), nil
	default:
		return nil, fmt.Errorf("engine: invalid pointer policy %d", int(p))
	}
}

// Kernel selects the stepping tier jobs run on (see internal/kernel).
// Rotor jobs are bit-identical across tiers. Walk jobs are exactly the
// same process under either engine, but the engines consume the seed's
// random stream differently, so a walk job's sampled trajectory — not its
// distribution — changes with the tier. The knob deliberately does not
// enter job-seed derivation.
type Kernel int

// Kernel tiers. The zero value is the default (automatic selection).
const (
	// KernelAuto lets each job pick: flat rotor kernels and counts-based
	// walks where dense enough, the sparse ring/path rotor rounds below
	// the flat kernels' density, generic engines otherwise.
	KernelAuto Kernel = iota
	// KernelGeneric forces the generic rotor engine and per-agent walks.
	KernelGeneric
	// KernelFast forces the specialized rotor kernel (where the topology
	// has one) and counts-based walks.
	KernelFast
	// KernelParallel is KernelFast plus within-round sharding on flat ring
	// layouts: contiguous node ranges step on separate goroutines and merge
	// at a barrier, bit-identical to the serial kernel at any shard count.
	// Shapes without a parallel stepper keep their KernelFast choice.
	KernelParallel
)

// ParseKernel converts a flag string (auto|generic|fast|parallel).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return KernelAuto, nil
	case "generic":
		return KernelGeneric, nil
	case "fast":
		return KernelFast, nil
	case "parallel":
		return KernelParallel, nil
	default:
		return 0, fmt.Errorf("engine: unknown kernel %q (auto|generic|fast|parallel)", s)
	}
}

func (k Kernel) String() string {
	switch k {
	case KernelGeneric:
		return "generic"
	case KernelFast:
		return "fast"
	case KernelParallel:
		return "parallel"
	default:
		return "auto"
	}
}

// CoreMode maps the tier to the rotor engine's kernel mode.
func (k Kernel) CoreMode() core.KernelMode {
	switch k {
	case KernelGeneric:
		return core.KernelGeneric
	case KernelFast:
		return core.KernelFast
	case KernelParallel:
		return core.KernelParallel
	default:
		return core.KernelAuto
	}
}

// WalkMode maps the tier to the walk engine's stepping mode: generic is
// per-agent, fast and parallel are counts-based.
func (k Kernel) WalkMode() randwalk.Mode {
	switch k {
	case KernelGeneric:
		return randwalk.ModeAgents
	case KernelFast, KernelParallel:
		return randwalk.ModeCounts
	default:
		return randwalk.ModeAuto
	}
}

// Process and metric names. Sweeps select both by name from the process
// registry (see process.go), so third processes and metrics plug in
// without engine edits; these constants name the built-ins.
const (
	// ProcRotor is the deterministic multi-agent rotor-router.
	ProcRotor = "rotor"
	// ProcWalk is the randomized baseline: k independent random walks.
	ProcWalk = "walk"

	// MetricCover measures the cover time (first round with every node
	// visited). For randomized processes each replica is one independent
	// trial.
	MetricCover = "cover"
	// MetricReturn measures the recurrence metric: the limit-cycle return
	// time for the rotor (Theorem 6), the mean inter-visit gap over a long
	// window for walks (the paper's closing comparison).
	MetricReturn = "return"
	// MetricRestab measures the re-stabilization time after a perturbation
	// (X9 / Bampas et al.): the rounds the system needs, from the
	// schedule's fault boundary, to lock into its limit cycle. Requires a
	// schedule with a fault event.
	MetricRestab = "restab_time"
	// MetricCoverAfterFault measures re-coverage: the rounds from the
	// schedule's fault boundary until the (possibly rewired) graph is
	// fully covered again, counting from a fresh coverage epoch. Requires
	// a schedule with a fault event.
	MetricCoverAfterFault = "cover_after_fault"
)

// SweepSpec describes a grid of experiment configurations: the cross
// product Topologies x Sizes x Agents x Placements x Pointers, each run
// Replicas times. The zero value of the optional fields selects defaults
// (ring topology, rotor process, cover metric, one replica, automatic
// round budget).
type SweepSpec struct {
	// Topologies lists the parameterized topology specs to sweep (see the
	// topology registry in topology.go for the grammar and RegisterTopology
	// for adding families). Axis-sized specs ("ring", "grid", "rr:3") take
	// their size parameter from Sizes; self-sized specs ("grid:64x32",
	// "rr:3x512") fix the graph themselves and contribute exactly one size
	// cell each. One sweep may mix topologies freely. Seeded families (rr,
	// shuffled) build their graphs deterministically from Seed. Empty
	// selects the single topology "ring".
	Topologies []Topo `json:"topologies,omitempty"`
	// Sizes lists the size parameters n for the axis-sized topologies:
	// node count (ring/path/complete/star/rr), side length (grid/torus),
	// dimension (hypercube) or level count (btree). It may be empty when
	// every entry of Topologies is self-sized.
	Sizes []int `json:"sizes,omitempty"`
	// Agents lists the agent counts k to sweep.
	Agents []int `json:"agents"`
	// Placements lists the initial placements; default PlaceSingle.
	Placements []Placement `json:"placements,omitempty"`
	// Pointers lists the pointer arrangements; default PtrZero. Ignored
	// (collapsed to one cell) for processes without pointers, e.g.
	// ProcWalk.
	Pointers []Pointer `json:"pointers,omitempty"`
	// Process names the registered process to run (ProcessNames lists
	// them); default ProcRotor.
	Process string `json:"process,omitempty"`
	// Metric names the registered quantity to measure (MetricNames lists
	// them); default MetricCover.
	Metric string `json:"metric,omitempty"`
	// Probes names the registered probes sampled during each job, each
	// with its stride in rounds. Sampled points stream into the JSONL sink
	// as each row's "series" field (the CSV sink omits them); they require
	// MetricCover. Probes never affect measured values or seeds.
	Probes []ProbeSpec `json:"probes,omitempty"`
	// Replicas is the number of runs per cell, each with its own derived
	// seed; default 1. Replicas of a deterministic configuration verify
	// reproducibility; replicas of randomized ones sample it.
	Replicas int `json:"replicas,omitempty"`
	// Seed is the base seed every job seed is derived from. Zero is a
	// valid base, distinct from every other.
	Seed uint64 `json:"seed,omitempty"`
	// MaxRounds bounds each run; 0 selects an automatic budget well above
	// the paper's worst-case Theta(n^2).
	MaxRounds int64 `json:"maxRounds,omitempty"`
	// Kernel selects the stepping tier; default KernelAuto. Rotor results
	// are bit-identical across tiers; walk trials are resampled (see
	// Kernel). Seeds never depend on it.
	Kernel Kernel `json:"kernel,omitempty"`
	// Schedules lists the perturbation schedules to sweep (see the schedule
	// registry in schedule.go for the grammar and RegisterSchedule for
	// adding families): "none", "delay:p=0.25", "edgefail:t=1000,count=4",
	// "churn:join=8@500,leave=4@900", "reset:t=256". The schedule is an
	// innermost grid axis; empty selects the single schedule "none", whose
	// cells — and rows — are exactly those of an unscheduled sweep. Job
	// seeds deliberately do not depend on the schedule, so the same cell
	// under different schedules starts from the same initial configuration
	// and rows are directly comparable; only the schedule's own event
	// stream is derived from the schedule spec.
	Schedules []Schedule `json:"schedules,omitempty"`
	// Missions lists the mission specs to sweep (see the mission registry
	// in mission.go for the grammar and RegisterMission for adding
	// families): "none", "explore", "return", "quiesce:window=4096",
	// "patrol:horizon=4096", "balance:horizon=4096,warmup=0". The mission
	// is the innermost grid axis; empty selects the single mission "none",
	// whose cells — and rows — are exactly those of a mission-less sweep.
	// Mission cells replace the metric measurement with the mission runner:
	// the process runs until the mission's predicate fires or its horizon
	// elapses (or the budget runs out: a mission_timeout row), and the row
	// carries mission_rounds plus the mission's own metrics. Job seeds
	// deliberately do not depend on the mission, so the same cell under
	// different missions starts from the same initial configuration.
	Missions []Mission `json:"missions,omitempty"`

	// topos is the parsed, validated form of Topologies, filled by
	// withDefaults; scheds the compiled form of Schedules; miss the
	// compiled form of Missions.
	topos  []topoInstance
	scheds []schedInstance
	miss   []missionInstance
}

// withDefaults returns a copy with defaults filled in and the grid
// validated.
func (s SweepSpec) withDefaults() (SweepSpec, error) {
	// Parse and validate every topology spec eagerly — cheap string work,
	// no graph construction — so malformed specs fail the sweep up front
	// instead of surfacing as per-job error rows. Parsing also
	// canonicalizes, so seed derivation (which hashes the spec string)
	// cannot distinguish "RING" from "ring".
	if len(s.Topologies) == 0 {
		s.Topologies = []Topo{"ring"}
	}
	s.topos = make([]topoInstance, 0, len(s.Topologies))
	canon := make([]Topo, len(s.Topologies)) // fresh slice: never mutate the caller's
	axisSized := false
	for i, t := range s.Topologies {
		inst, err := parseTopo(string(t))
		if err != nil {
			return s, err
		}
		canon[i] = Topo(inst.canonical)
		s.topos = append(s.topos, inst)
		if inst.size == 0 {
			axisSized = true
		}
	}
	s.Topologies = canon
	if axisSized && len(s.Sizes) == 0 {
		return s, fmt.Errorf("engine: sweep needs at least one size")
	}
	if len(s.Agents) == 0 {
		return s, fmt.Errorf("engine: sweep needs at least one agent count")
	}
	for _, k := range s.Agents {
		if k < 1 {
			return s, fmt.Errorf("engine: agent count %d < 1", k)
		}
	}
	if len(s.Placements) == 0 {
		s.Placements = []Placement{PlaceSingle}
	}
	s.Process = strings.ToLower(s.Process)
	if s.Process == "" {
		s.Process = ProcRotor
	}
	proc, ok := LookupProcess(s.Process)
	if !ok {
		return s, fmt.Errorf("engine: unknown process %q (registered: %s)",
			s.Process, strings.Join(ProcessNames(), "|"))
	}
	if !proc.UsesPointers || len(s.Pointers) == 0 {
		// Processes without pointers: collapse the axis so the grid has no
		// duplicate cells.
		s.Pointers = []Pointer{PtrZero}
	}
	s.Metric = strings.ToLower(s.Metric)
	if s.Metric == "" {
		s.Metric = MetricCover
	}
	if _, ok := LookupMetric(s.Metric); !ok {
		return s, fmt.Errorf("engine: unknown metric %q (registered: %s)",
			s.Metric, strings.Join(MetricNames(), "|"))
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Replicas < 0 {
		return s, fmt.Errorf("engine: negative replica count %d", s.Replicas)
	}
	// Validate enums and the topology eagerly so Run fails before any
	// worker starts.
	for _, p := range s.Placements {
		if p < PlaceSingle || p > PlaceRandom {
			return s, fmt.Errorf("engine: invalid placement %d", int(p))
		}
	}
	for _, p := range s.Pointers {
		if p < PtrZero || p > PtrRandom {
			return s, fmt.Errorf("engine: invalid pointer policy %d", int(p))
		}
	}
	if s.Kernel < KernelAuto || s.Kernel > KernelParallel {
		return s, fmt.Errorf("engine: invalid kernel %d", int(s.Kernel))
	}
	for _, p := range s.Probes {
		if !probe.Known(p.Name) {
			return s, fmt.Errorf("engine: unknown probe %q (registered: %s)",
				p.Name, strings.Join(probe.Names(), "|"))
		}
		if p.Stride < 1 {
			return s, fmt.Errorf("engine: probe %q: stride %d < 1", p.Name, p.Stride)
		}
	}
	if len(s.Probes) > 0 && s.Metric != MetricCover {
		return s, fmt.Errorf("engine: probes require the %q metric (got %q)", MetricCover, s.Metric)
	}
	// Parse and compile every schedule spec eagerly (cheap string work,
	// like topologies) so malformed specs fail the sweep up front. The
	// canonical forms replace the caller's spellings, mirroring Topologies.
	if len(s.Schedules) == 0 {
		s.Schedules = []Schedule{SchedNone}
	}
	s.scheds = make([]schedInstance, 0, len(s.Schedules))
	schedCanon := make([]Schedule, len(s.Schedules))
	perturbed := false
	faulted := false
	for i, sc := range s.Schedules {
		inst, err := parseSchedule(string(sc))
		if err != nil {
			return s, err
		}
		schedCanon[i] = Schedule(inst.canonical)
		s.scheds = append(s.scheds, inst)
		if !inst.none() {
			perturbed = true
		}
		if inst.plan.FaultRound >= 0 {
			faulted = true
		}
	}
	s.Schedules = schedCanon
	if perturbed && s.Metric == MetricReturn {
		// The recurrence metric measures the unperturbed limit behavior
		// from round 0; running it under a schedule would silently ignore
		// the schedule, so reject the combination up front.
		return s, fmt.Errorf("engine: the %q metric does not support schedules", MetricReturn)
	}
	if (s.Metric == MetricRestab || s.Metric == MetricCoverAfterFault) && !faulted {
		return s, fmt.Errorf("engine: the %q metric requires at least one schedule with a bounded fault (got %s)",
			s.Metric, scheduleList(s.Schedules))
	}
	// Parse and compile every mission spec eagerly, mirroring schedules.
	if len(s.Missions) == 0 {
		s.Missions = []Mission{MissionNone}
	}
	s.miss = make([]missionInstance, 0, len(s.Missions))
	missionCanon := make([]Mission, len(s.Missions))
	missioned := false
	for i, m := range s.Missions {
		inst, err := parseMission(string(m))
		if err != nil {
			return s, err
		}
		missionCanon[i] = Mission(inst.canonical)
		s.miss = append(s.miss, inst)
		if !inst.none() {
			missioned = true
		}
	}
	s.Missions = missionCanon
	if missioned {
		// Mission cells replace the metric measurement with the mission
		// runner, so combinations that would silently ignore part of the
		// spec are rejected up front.
		if s.Metric != MetricCover {
			return s, fmt.Errorf("engine: missions require the default %q metric (got %q)", MetricCover, s.Metric)
		}
		if len(s.Probes) > 0 {
			return s, fmt.Errorf("engine: missions do not support probes")
		}
		// Incremental mission predicates (the explore bitmap, the return
		// position ledger) assume a fixed graph and population; only hold
		// regimes and pointer resets compose with missions today.
		for _, si := range s.scheds {
			for _, ev := range si.plan.Events {
				switch ev.Kind {
				case EvEdgeFail, EvRepair, EvJoin, EvLeave:
					return s, fmt.Errorf("engine: missions do not support schedule %q (topology or population changes)",
						si.canonical)
				}
			}
		}
	}
	// Topology specs were parsed and validated above without constructing
	// any graph (building huge topologies just to validate would be worse
	// than late failure); out-of-range axis sizes still surface as per-job
	// error rows so the rest of the grid runs.
	return s, nil
}

// scheduleList renders a schedule list for error messages.
func scheduleList(scheds []Schedule) string {
	parts := make([]string, len(scheds))
	for i, s := range scheds {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

// Cell is one grid point of a sweep: a fully specified configuration, run
// Replicas times by one worker.
type Cell struct {
	// Index is the cell's position in the canonical grid order
	// (topologies outermost, then sizes, agents, placements, pointers,
	// schedules innermost).
	Index int `json:"cell"`
	// Topology is the canonical topology spec as listed in the sweep
	// ("ring", "grid:64x32", "rr:3").
	Topology string `json:"topology"`
	// Spec is the resolved self-sized instance spec — the string that
	// re-parses to exactly this cell's graph shape ("ring:1024",
	// "grid:64x64", "rr:3x512") — so cross-topology output is
	// self-describing.
	Spec string `json:"spec,omitempty"`
	// N is the size parameter: the Sizes-axis value for axis-sized specs,
	// the implied size for self-sized ones.
	N int `json:"n"`
	K int `json:"k"`
	// Schedule is the canonical perturbation-schedule spec of the cell,
	// empty for unperturbed cells (schedule "none") — so unscheduled rows
	// serialize exactly as they did before schedules existed.
	Schedule string `json:"schedule,omitempty"`
	// Mission is the canonical mission spec of the cell, empty for
	// mission-less cells (mission "none") — so mission-less rows serialize
	// exactly as they did before missions existed.
	Mission   string    `json:"mission,omitempty"`
	Placement Placement `json:"-"`
	Pointer   Pointer   `json:"-"`

	// inst is the parsed topology, carried so workers can key the graph
	// cache and build without re-parsing; sched is the compiled schedule,
	// mis the compiled mission. Cells compared with reflect.DeepEqual stay
	// equal across runs: all point into the process-wide registry.
	inst  topoInstance
	sched schedInstance
	mis   missionInstance
}

// Cells expands the grid in canonical order. The cell order — and therefore
// the order rows reach the sinks — depends only on the spec.
func (s SweepSpec) Cells() ([]Cell, error) {
	spec, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	return spec.expand(), nil
}

// NumJobs returns how many jobs the spec expands to, cells times replicas,
// without building the grid, so admission control can refuse a grid too
// large to build. Counts past math.MaxInt saturate.
func (s SweepSpec) NumJobs() (int, error) {
	spec, err := s.withDefaults()
	if err != nil {
		return 0, err
	}
	return satMul(spec.numCells(), spec.Replicas), nil
}

// numCells counts the cells expand builds from an already-normalized
// spec, saturating at math.MaxInt.
func (s SweepSpec) numCells() int {
	sizes := 0 // (topology, size) pairs: a self-sized topology has one
	for _, inst := range s.topos {
		if inst.size != 0 {
			sizes++
		} else {
			sizes += len(s.Sizes)
		}
	}
	return satMul(sizes, len(s.Agents), len(s.Placements), len(s.Pointers), len(s.scheds), len(s.miss))
}

// satMul multiplies non-negative factors, saturating at math.MaxInt.
func satMul(xs ...int) int {
	p := 1
	for _, x := range xs {
		if x != 0 && p > math.MaxInt/x {
			return math.MaxInt
		}
		p *= x
	}
	return p
}

// expand builds the canonical cell grid of an already-normalized spec.
// Self-sized topologies contribute one size cell (their implied size)
// instead of fanning out over the Sizes axis, which does not apply to
// them. Schedules and then missions are the innermost axes, so a
// configuration's variants (perturbed next to pristine, goal-directed next
// to budgeted) land adjacently in the stream.
func (s SweepSpec) expand() []Cell {
	cells := make([]Cell, 0, s.numCells())
	for _, inst := range s.topos {
		sizes := s.Sizes
		if inst.size != 0 {
			sizes = []int{inst.size}
		}
		for _, n := range sizes {
			for _, k := range s.Agents {
				for _, pl := range s.Placements {
					for _, pt := range s.Pointers {
						for _, sc := range s.scheds {
							for _, mi := range s.miss {
								cells = append(cells, Cell{
									Index:     len(cells),
									Topology:  inst.canonical,
									Spec:      inst.resolved(n),
									N:         n,
									K:         k,
									Schedule:  sc.cellName(),
									Mission:   mi.cellName(),
									Placement: pl,
									Pointer:   pt,
									inst:      inst,
									sched:     sc,
									mis:       mi,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
}
