// Command rotorsim runs multi-agent rotor-router (or parallel random-walk)
// experiments on the deterministic parallel sweep engine. Every flag that
// takes a value accepts a comma-separated list, turning a single run into a
// grid sweep; a single configuration is just a 1-cell sweep.
//
// The process, the metric, the perturbation schedule and the mission are
// selected by name from the engine's registries (-process rotor|walk...,
// -metric cover|return|restab_time..., -schedule
// none|delay:...|edgefail:..., -mission none|explore|patrol:...), so
// processes, metrics and scenario families registered by other packages
// are reachable without command changes. The -probes flag attaches
// registered stride-sampled probes whose time series streams into the
// JSONL rows. Output formats other than text resolve through the sink
// registry the same way (-format jsonl|csv|summary), and unknown names on
// any of these flags exit nonzero listing what is registered.
//
// Usage examples:
//
//	rotorsim -topology ring -n 1024 -k 8 -place equal -pointers negative
//	rotorsim -topology ring -n 1024 -k 8 -place single -pointers toward -metric return
//	rotorsim -topology grid -n 32 -k 4 -process walk -trials 32
//	rotorsim -n 256,512,1024 -k 2,4,8 -place single,equal -format csv
//	rotorsim -n 512 -k 4,8 -replicas 16 -process walk -workers 8 -format jsonl
//	rotorsim -n 1024 -k 8 -probes coverage:256,histogram:1024 -format jsonl
//	rotorsim -n 1024 -k 8 -schedule "none,delay:p=0.25,edgefail:t=4096,count=2" -format jsonl
//	rotorsim -n 128 -k 4 -place random -pointers random -schedule "edgefail:t=131072" -metric restab_time
//	rotorsim -n 256 -k 8 -mission "explore,patrol:horizon=4096" -format jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/probe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotorsim:", err)
		os.Exit(1)
	}
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(flagName, s string) ([]int, error) {
	return parseList(s, func(p string) (int, error) {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return 0, fmt.Errorf("-%s: bad value %q (want positive integers)", flagName, p)
		}
		return v, nil
	})
}

// parseList parses a comma-separated list through a per-item parser.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotorsim", flag.ContinueOnError)
	topology := fs.String("topology", "ring", "comma-separated topology specs, e.g. ring,grid:64x32,torus:128x8,rr:3 (families: "+strings.Join(engine.TopologyNames(), "|")+"); self-sized specs ignore -n")
	nFlag := fs.String("n", "1024", "size parameter list for axis-sized topologies (nodes; side length for grid/torus; dimension for hypercube; levels for btree)")
	kFlag := fs.String("k", "4", "agent count list")
	place := fs.String("place", "equal", "placement list: single|equal|random")
	pointers := fs.String("pointers", "zero", "pointer init list: zero|negative|toward|random")
	seed := fs.Uint64("seed", 1, "base seed; per-job seeds are derived from it and the configuration")
	process := fs.String("process", "", "process to run: "+strings.Join(engine.ProcessNames(), "|")+" (default rotor)")
	metric := fs.String("metric", "", "metric to measure: "+strings.Join(engine.MetricNames(), "|")+" (default cover)")
	probes := fs.String("probes", "", "stride-sampled probes as name:stride pairs, e.g. coverage:256,histogram:1024 (names: "+strings.Join(probe.Names(), "|")+"); series appear in jsonl rows")
	schedule := fs.String("schedule", "none", "comma-separated perturbation schedules, e.g. none,delay:p=0.25,edgefail:t=1000,count=4 — note count/repair keys belong to the preceding spec (families: "+strings.Join(engine.ScheduleNames(), "|")+")")
	mission := fs.String("mission", "none", "comma-separated missions, e.g. none,explore,patrol:horizon=4096 — note warmup/window keys belong to the preceding spec (families: "+strings.Join(engine.MissionNames(), "|")+")")
	trials := fs.Int("trials", 16, "trials for the walk expectation estimate (walk replicas)")
	replicas := fs.Int("replicas", 1, "replicas per grid cell, each with a derived seed")
	workers := fs.Int("workers", 0, "sweep engine worker pool size (0 = GOMAXPROCS); never affects results")
	kernelFlag := fs.String("kernel", "auto", "stepping tier: auto|generic|fast|parallel; rotor results are bit-identical across tiers, walk trials are resampled (statistically equivalent)")
	format := fs.String("format", "text", "output format: text, or a registered sink: "+strings.Join(engine.SinkNames(), "|"))
	budget := fs.Int64("budget", 0, "round budget (0 = automatic)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	replicasSet, trialsSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "replicas":
			replicasSet = true
		case "trials":
			trialsSet = true
		}
	})
	procName := strings.ToLower(*process)
	if procName == "" {
		procName = engine.ProcRotor
	}
	// Registry names fail fast, before any grid expansion or engine work,
	// so a typo dies with the registered list instead of mid-sweep.
	if _, ok := engine.LookupProcess(procName); !ok {
		return fmt.Errorf("-process: unknown process %q (registered: %s)",
			procName, strings.Join(engine.ProcessNames(), "|"))
	}
	metricName := strings.ToLower(*metric)
	if metricName != "" {
		if _, ok := engine.LookupMetric(metricName); !ok {
			return fmt.Errorf("-metric: unknown metric %q (registered: %s)",
				metricName, strings.Join(engine.MetricNames(), "|"))
		}
	}

	if trialsSet && replicasSet {
		return fmt.Errorf("-trials and -replicas are aliases for walks; set only one")
	}
	if trialsSet && procName != engine.ProcWalk {
		return fmt.Errorf("-trials applies only to walks (use -replicas for other sweeps)")
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas: need at least 1, got %d", *replicas)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials: need at least 1, got %d", *trials)
	}

	ns, err := parseInts("n", *nFlag)
	if err != nil {
		return err
	}
	topos, err := parseList(*topology, func(p string) (engine.Topo, error) {
		t, err := engine.ParseTopo(p)
		if err != nil {
			return "", fmt.Errorf("-topology: %w", err)
		}
		return t, nil
	})
	if err != nil {
		return err
	}
	ks, err := parseInts("k", *kFlag)
	if err != nil {
		return err
	}
	places, err := parseList(*place, engine.ParsePlacement)
	if err != nil {
		return err
	}
	ptrs, err := parseList(*pointers, engine.ParsePointer)
	if err != nil {
		return err
	}
	kern, err := engine.ParseKernel(*kernelFlag)
	if err != nil {
		return err
	}
	scheds := make([]engine.Schedule, 0, 1)
	for _, p := range splitSpecs(*schedule, engine.LookupSchedule) {
		sc, err := engine.ParseSchedule(p)
		if err != nil {
			return fmt.Errorf("-schedule: %w", err)
		}
		scheds = append(scheds, sc)
	}
	// Mission names fail fast like every other registry flag: a typo dies
	// here with the registered list instead of mid-sweep.
	missions := make([]engine.Mission, 0, 1)
	for _, p := range splitSpecs(*mission, engine.LookupMission) {
		mi, err := engine.ParseMission(p)
		if err != nil {
			return fmt.Errorf("-mission: %w", err)
		}
		missions = append(missions, mi)
	}
	probeSpecs, err := parseProbes(*probes)
	if err != nil {
		return err
	}
	if len(probeSpecs) > 0 && *format != "jsonl" {
		// Only the JSONL sink serializes series; computing them for text
		// or CSV output would burn the sampling cost and discard it.
		return fmt.Errorf("-probes requires -format jsonl (series are not representable in %s output)", *format)
	}

	spec := engine.SweepSpec{
		Topologies: topos,
		Sizes:      ns,
		Agents:     ks,
		Placements: places,
		Pointers:   ptrs,
		Process:    procName,
		Metric:     metricName,
		Probes:     probeSpecs,
		Replicas:   *replicas,
		Seed:       *seed,
		MaxRounds:  *budget,
		Kernel:     kern,
		Schedules:  scheds,
		Missions:   missions,
	}
	if procName == engine.ProcWalk && !replicasSet {
		// Walks default to -trials replicas; an explicit -replicas wins
		// (the two flags are mutually exclusive, checked above).
		spec.Replicas = *trials
	}
	eng := engine.New(engine.Workers(*workers))

	if *format == "text" {
		return runText(eng, spec, out)
	}
	// Every other format resolves by name through the sink registry — the
	// same path the rotord service's ?format= uses — so formats registered
	// by other packages work here without command changes.
	sink, err := engine.NewSink(*format, out)
	if err != nil {
		return err
	}
	_, err = eng.Run(spec, sink)
	return err
}

// splitSpecs splits a registry-spec list flag (-schedule, -mission) into
// specs: commas separate specs, but a fragment whose head is not a
// registered family continues the previous spec's parameter list — spec
// parameters themselves contain commas ("edgefail:t=1000,count=4",
// "patrol:horizon=4096,warmup=64").
func splitSpecs[T any](s string, lookup func(string) (T, bool)) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		head := strings.ToLower(p)
		if i := strings.IndexAny(head, ":="); i >= 0 {
			head = head[:i]
		}
		if _, ok := lookup(head); ok || len(out) == 0 {
			out = append(out, p)
		} else {
			out[len(out)-1] += "," + p
		}
	}
	return out
}

// parseProbes parses the -probes flag: comma-separated name:stride pairs.
func parseProbes(s string) ([]engine.ProbeSpec, error) {
	if s == "" {
		return nil, nil
	}
	return parseList(s, func(p string) (engine.ProbeSpec, error) {
		name, strideStr, ok := strings.Cut(p, ":")
		if !ok {
			return engine.ProbeSpec{}, fmt.Errorf("-probes: %q (want name:stride)", p)
		}
		name = strings.ToLower(name) // match the -process/-metric flags
		if !probe.Known(name) {
			return engine.ProbeSpec{}, fmt.Errorf("-probes: unknown probe %q (registered: %s)",
				name, strings.Join(probe.Names(), "|"))
		}
		stride, err := strconv.ParseInt(strideStr, 10, 64)
		if err != nil || stride < 1 {
			return engine.ProbeSpec{}, fmt.Errorf("-probes: bad stride in %q (want a positive integer)", p)
		}
		return engine.ProbeSpec{Name: name, Stride: stride}, nil
	})
}

// runText renders sweeps human-readably: legacy single-line output for a
// 1-cell sweep, a summary table otherwise.
func runText(eng *engine.Engine, spec engine.SweepSpec, out io.Writer) error {
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	single := len(cells) == 1
	walk := spec.Process == engine.ProcWalk
	// The per-topology line describes one graph; it is printed only when
	// every cell runs on the same instance (one topology, one size) —
	// rebuilt here from the resolved spec and the sweep's graph seed, so
	// for seeded families it describes exactly the graph the jobs ran on.
	oneGraph := true
	for _, c := range cells[1:] {
		if c.Spec != cells[0].Spec {
			oneGraph = false
			break
		}
	}
	if oneGraph {
		g, err := headerGraph(spec.Seed, cells[0])
		switch {
		case err != nil && single:
			// A single configuration whose graph cannot exist fails hard,
			// as it always has (e.g. "ring" at n=2).
			return err
		case err == nil:
			fmt.Fprintf(out, "topology %s: %d nodes, %d edges, max degree %d, diameter %d\n",
				g.Name(), g.NumNodes(), g.NumEdges(), g.MaxDegree(), g.Diameter())
			// A failing grid skips the header and degrades to per-row
			// errors in the summary table, like any other per-job failure.
		}
	}

	start := time.Now()
	sum := engine.NewSummarySink()
	rows, err := eng.Run(spec, sum)
	if err != nil {
		return err
	}
	recurrence := spec.Metric == engine.MetricReturn
	// A single configuration fails hard; a grid degrades gracefully and
	// reports per-cell failures in the summary table instead.
	if single {
		if err := firstRowErr(rows); err != nil {
			if recurrence {
				return fmt.Errorf("return time: %w", err)
			}
			return err
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if recurrence {
		switch {
		case walk && single:
			// The walk has no limit cycle; its recurrence measure is the
			// mean inter-visit gap over a long window (expectation n/k on
			// the ring).
			c := sum.Cells()[0]
			fmt.Fprintf(out, "recurrence: mean inter-visit gap = %.1f ± %.1f rounds (%d trials, %v)\n",
				c.Mean, c.StdErr, c.Replicas, elapsed)
		case single:
			r := rows[0]
			fmt.Fprintf(out, "limit cycle: period %d, return time %.0f (per-node visits %d..%d, %v)\n",
				r.Period, r.Value, r.MinVisits, r.MaxVisits, elapsed)
		default:
			fmt.Fprintf(out, "sweep: return-time metric (%v)\n", elapsed)
			return sum.WriteTable(out)
		}
		return nil
	}
	// The legacy single-line formats speak cover-time language; other
	// registry metrics (restab_time, ...) and mission sweeps render as a
	// summary table.
	coverish := spec.Metric == "" || spec.Metric == engine.MetricCover
	for _, m := range spec.Missions {
		if m != engine.MissionNone {
			coverish = false
		}
	}

	label := spec.Metric
	if label == "" || label == engine.MetricCover {
		label = "mission" // only missions force a table on the cover metric
	}
	switch {
	case !coverish:
		fmt.Fprintf(out, "sweep: %d cells x %d replicas on %d workers, %s metric (%v)\n",
			len(cells), spec.Replicas, eng.NumWorkers(), label, elapsed)
		return sum.WriteTable(out)
	case walk && single:
		c := sum.Cells()[0]
		fmt.Fprintf(out, "random walks: k=%d, E[cover] = %.0f ± %.0f rounds (median %.0f, range [%.0f, %.0f], %d trials, %v)\n",
			c.K, c.Mean, c.StdErr, c.Median, c.Min, c.Max, c.Replicas, elapsed)
	case single && spec.Replicas == 1:
		r := rows[0]
		fmt.Fprintf(out, "rotor-router: k=%d, cover time = %.0f rounds (%v)\n", r.K, r.Value, elapsed)
	case single:
		c := sum.Cells()[0]
		fmt.Fprintf(out, "rotor-router: k=%d, cover time = %.0f ± %.0f rounds (median %.0f, range [%.0f, %.0f], %d replicas, %v)\n",
			c.K, c.Mean, c.StdErr, c.Median, c.Min, c.Max, c.Replicas, elapsed)
	default:
		fmt.Fprintf(out, "sweep: %d cells x %d replicas on %d workers, cover metric (%v)\n",
			len(cells), spec.Replicas, eng.NumWorkers(), elapsed)
		return sum.WriteTable(out)
	}
	return nil
}

// headerGraph rebuilds the one graph of a single-instance sweep from its
// resolved spec and the sweep's graph seed, so the header line describes
// exactly the graph the jobs run on (seeded families included).
func headerGraph(seed uint64, c engine.Cell) (*graph.Graph, error) {
	t := engine.Topo(c.Spec)
	gseed, err := engine.GraphSeed(seed, t, c.N)
	if err != nil {
		return nil, err
	}
	return engine.BuildTopo(t, c.N, gseed)
}

// firstRowErr surfaces the first failed job of a sweep.
func firstRowErr(rows []engine.Row) error {
	for _, r := range rows {
		if r.Err != "" {
			return fmt.Errorf("n=%d k=%d replica=%d: %s", r.N, r.K, r.Replica, r.Err)
		}
	}
	return nil
}
