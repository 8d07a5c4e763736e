package rotorring

import (
	"io"

	"rotorring/internal/engine"
)

// Topo is one parameterized topology spec in a sweep, drawn from the
// topology registry: a family name optionally followed by ":"-separated
// parameters, e.g. "ring", "grid:64x32", "torus:128x8", "rr:3",
// "shuffled:grid:8x8", "ring:1024". Axis-sized specs take their size from
// SweepSpec.Sizes; self-sized specs (explicit dimensions) fix the graph
// themselves. ParseTopo validates and canonicalizes; TopologyNames lists
// the registered families.
type Topo = engine.Topo

// ParseTopo validates a topology spec string and returns its canonical
// form (lower case, normalized parameters — "Grid:5" becomes "grid:5x5").
// The canonical form re-parses to itself.
func ParseTopo(s string) (Topo, error) { return engine.ParseTopo(s) }

// TopologyNames lists the registered topology family names, sorted.
func TopologyNames() []string { return engine.TopologyNames() }

// Schedule is one parameterized perturbation-schedule spec in a sweep,
// drawn from the schedule registry: a family name optionally followed by
// key=value parameters, e.g. "none", "delay:p=0.25",
// "edgefail:t=1000,count=4,repair=5000", "churn:join=8@500,leave=4@900",
// "reset:t=256". Schedules compile to deterministic per-run event streams
// derived from the sweep seed: delayed activation (§2.1), edge deletion
// and repair with pointer transplantation, agent arrival/departure, and
// rotor-pointer resets. ParseSchedule validates and canonicalizes;
// ScheduleNames lists the registered families.
type Schedule = engine.Schedule

// ParseSchedule validates a schedule spec string and returns its canonical
// form (lower case, normalized parameters — "EDGEFAIL:t=9" becomes
// "edgefail:t=9,count=1"). The canonical form re-parses to itself.
func ParseSchedule(s string) (Schedule, error) { return engine.ParseSchedule(s) }

// ScheduleNames lists the registered schedule family names, sorted.
func ScheduleNames() []string { return engine.ScheduleNames() }

// Mission is one parameterized mission spec in a sweep, drawn from the
// mission registry: a termination predicate plus mission-scoped metrics,
// e.g. "explore" (all edges traversed), "return" (explore, then the initial
// agent configuration recurs), "quiesce:window=4096" (limit-cycle entry),
// "patrol:horizon=4096" (per-vertex idle-time staleness — the paper's
// Θ(n/k) service guarantee as measured columns), and
// "balance:horizon=4096,warmup=0" (visit-count fairness). Mission cells run
// until the predicate fires or the horizon elapses instead of measuring a
// metric under a fixed budget; a run that exhausts its round budget first
// reports MissionTimeout rather than failing. ParseMission validates and
// canonicalizes; MissionNames lists the registered families.
type Mission = engine.Mission

// ParseMission validates a mission spec string and returns its canonical
// form (lower case, normalized parameters — "QUIESCE" becomes
// "quiesce:window=4096"). The canonical form re-parses to itself.
func ParseMission(s string) (Mission, error) { return engine.ParseMission(s) }

// MissionNames lists the registered mission family names, sorted.
func MissionNames() []string { return engine.MissionNames() }

// SweepSpec describes a grid of experiments: the cross product of
// Topologies × Sizes × Agents × Placements × Pointers × Schedules ×
// Missions, each configuration run Replicas times with a seed derived from
// Seed and the configuration (never from execution order). Sweeps
// therefore produce bit-identical results regardless of how many workers
// run them.
//
// Zero-valued optional fields select defaults: ring topology,
// PlaceSingleNode, PointerZero, rotor-router process, cover-time metric,
// one replica, automatic round budget, KernelAuto. Seed 0 is a valid base
// seed. Process, Metric, Topologies, Schedules and Missions name entries
// of the engine's registries (ProcessNames, MetricNames, TopologyNames,
// ScheduleNames, MissionNames). Each field is documented on the engine's
// type (go doc rotorring/internal/engine.SweepSpec).
//
// SweepSpec has a versioned JSON wire form — the format the rotord sweep
// service accepts and the preimage of its content-addressed sweep ids —
// provided by the specjson package: specjson.Encode produces canonical
// bytes, specjson.Decode validates and canonicalizes.
type SweepSpec = engine.SweepSpec

// ProbeSpec selects a registered probe and its sampling stride for a
// sweep.
type ProbeSpec = engine.ProbeSpec

// SweepRow is the result of one sweep job (one replica of one grid cell).
type SweepRow struct {
	// Topology is the canonical topology spec the cell came from; Spec is
	// the resolved self-sized instance ("grid" at size 8 resolves to
	// "grid:8x8"), which re-parses to exactly this cell's graph shape.
	Topology string
	Spec     string
	N, K     int
	// Schedule is the canonical perturbation schedule the cell ran under,
	// empty for unperturbed cells.
	Schedule string
	// Mission is the canonical mission the cell ran, empty for mission-less
	// cells.
	Mission string
	// Edges and MaxDegree describe the cell's graph (zero when the graph
	// failed to build).
	Edges     int
	MaxDegree int
	Placement PlacementPolicy
	Pointer   PointerPolicy // zero for processes without pointers
	// Process and Metric are the registry names the job ran.
	Process string
	Metric  string
	Replica int
	// Seed is the derived per-job seed.
	Seed uint64
	// Value is the measured metric: cover time, or return time / mean gap
	// for the return metric.
	Value float64
	// Rounds is the number of simulated rounds.
	Rounds int64
	// Period is only set by return-time sweeps and the quiesce mission:
	// the limit-cycle length for the rotor, the worst observed inter-visit
	// gap for walks.
	Period int64
	// MinVisits and MaxVisits are per-node visit-count extremes: within one
	// limit cycle for rotor return-time sweeps, within the measurement
	// window for the balance mission.
	MinVisits int64
	MaxVisits int64
	// MissionRounds is a mission cell's round count: the round the
	// predicate fired or the horizon elapsed (or the budget ran out).
	MissionRounds int64
	// MissionTimeout marks a mission that exhausted its round budget
	// before completing — an outcome, not an error.
	MissionTimeout bool
	// StalenessMax and StalenessMean are the patrol mission's per-vertex
	// idle-interval extremes after stabilization.
	StalenessMax  float64
	StalenessMean float64
	// Fairness is the balance mission's max/min visit-count ratio (0 when
	// some vertex went unvisited in the measurement window).
	Fairness float64
	// Err is the per-job failure, e.g. an exhausted round budget; failed
	// jobs report rather than abort the sweep.
	Err string
	// Series holds the probes' sampled points in round order (empty
	// without Probes).
	Series []SeriesPoint
}

func publicRows(rows []engine.Row) []SweepRow {
	out := make([]SweepRow, len(rows))
	for i, r := range rows {
		out[i] = SweepRow{
			Topology:  r.Topology,
			Spec:      r.Spec,
			N:         r.N,
			K:         r.K,
			Schedule:  r.Cell.Schedule,
			Mission:   r.Cell.Mission,
			Edges:     r.Edges,
			MaxDegree: r.MaxDegree,
			Placement: r.Cell.Placement,
			Process:   r.Process,
			Metric:    r.Metric,
			Replica:   r.Replica,
			Seed:      r.Seed,
			Value:     r.Value,
			Rounds:    r.Rounds,
			Period:    r.Period,
			MinVisits: r.MinVisits,
			MaxVisits: r.MaxVisits,
			Err:       r.Err,
			Series:    r.Series,

			MissionRounds:  r.MissionRounds,
			MissionTimeout: r.MissionTimeout,
			StalenessMax:   r.StalenessMax,
			StalenessMean:  r.StalenessMean,
			Fairness:       r.Fairness,
		}
		if r.Pointer != "" { // pointer-less processes leave the column empty
			out[i].Pointer = r.Cell.Pointer
		}
	}
	return out
}

// RunSweep executes the sweep on a worker pool of the given size (0 =
// GOMAXPROCS) and returns the rows in canonical grid order: sizes, then
// agents, placements, pointers, schedules, missions, replicas. The worker
// count never affects the results, only the wall-clock time.
func RunSweep(spec SweepSpec, workers int) ([]SweepRow, error) {
	rows, err := engine.New(engine.Workers(workers)).Run(spec)
	if err != nil {
		return nil, err
	}
	return publicRows(rows), nil
}

// SinkNames lists the registered output format names, sorted ("csv",
// "jsonl", "summary", plus anything other packages register). Each name
// works with WriteSweep, with rotorsim -format, and with the rotord
// service's ?format= parameter — the three resolve through one registry.
func SinkNames() []string { return engine.SinkNames() }

// WriteSweep runs the sweep on a worker pool of the given size (0 =
// GOMAXPROCS) and streams the rows to w in canonical order, in a
// registered output format resolved by name ("jsonl", "csv", "summary";
// see SinkNames). The output is byte-identical for any worker count.
// Unknown format names fail with an error listing the registered formats.
func WriteSweep(w io.Writer, spec SweepSpec, format string, workers int) error {
	sink, err := engine.NewSink(format, w)
	if err != nil {
		return err
	}
	_, err = engine.New(engine.Workers(workers)).Run(spec, sink)
	return err
}
