// Package expt is the experiment harness that regenerates the paper's
// evaluation: every row of Table 1 (cover times under worst- and best-case
// placements for both processes, and return times), the two figures, and
// the supporting lemma-level measurements. DESIGN.md §3 is the index; each
// experiment here carries its id (E1..E6, F1, F2, X1..X9).
//
// Reproduction criterion: the paper's results are Θ-bounds, so each
// experiment reports a normalized ratio (measured / predicted shape) and
// checks that it stays within a bounded spread while n and k sweep —
// "who wins, by roughly what factor, where crossovers fall".
package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"rotorring/internal/engine"
)

// Scale selects sweep sizes.
type Scale int

// Scales. Quick is CI-sized (seconds per experiment); Full reproduces the
// sweeps recorded in EXPERIMENTS.md (minutes).
const (
	Quick Scale = iota + 1
	Full
)

// ParseScale converts a string flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("expt: unknown scale %q (want quick or full)", s)
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	// Seed drives every randomized component; experiments are
	// deterministic given (Scale, Seed) — Workers only affects wall-clock
	// time, never results.
	Seed uint64
	// Workers bounds the experiment engine's parallelism; 0 selects
	// GOMAXPROCS.
	Workers int
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// WriteCSV emits the table as CSV (title and notes as comment records
// prefixed with '#', then the header row and data rows), for downstream
// plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ShapeCheck records one Θ-shape verification: the spread (max/min) of a
// normalized ratio over a sweep, against an acceptance limit.
type ShapeCheck struct {
	// Name describes the normalized quantity, e.g. "cover·H_k/n²".
	Name string
	// Spread is the observed max/min of the ratio across the sweep.
	Spread float64
	// Limit is the acceptance threshold.
	Limit float64
	// OK reports Spread <= Limit.
	OK bool
}

func newShapeCheck(name string, ratios []float64, limit float64) ShapeCheck {
	lo, hi := 0.0, 0.0
	for i, r := range ratios {
		if i == 0 || r < lo {
			lo = r
		}
		if i == 0 || r > hi {
			hi = r
		}
	}
	spread := 0.0
	if lo > 0 {
		spread = hi / lo
	}
	return ShapeCheck{Name: name, Spread: spread, Limit: limit, OK: spread > 0 && spread <= limit}
}

// Result is the output of one experiment.
type Result struct {
	Tables []*Table
	Shapes []ShapeCheck
}

// Render writes all tables and shape verdicts.
func (r *Result) Render(w io.Writer) {
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, s := range r.Shapes {
		status := "HOLDS"
		if !s.OK {
			status = "VIOLATED"
		}
		fmt.Fprintf(w, "  shape %-34s spread %.2fx (limit %.1fx)  %s\n",
			s.Name, s.Spread, s.Limit, status)
	}
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the DESIGN.md identifier (E1..E6, F1, F2, X1..X9).
	ID string
	// PaperRef names the table/figure/lemma being reproduced.
	PaperRef string
	// Claim is a one-line statement of what the paper asserts.
	Claim string
	// Run executes the experiment.
	Run func(cfg Config) (*Result, error)
}

// All returns the experiments in DESIGN.md order.
func All() []*Experiment {
	return []*Experiment{
		expE1(), expE2(), expE3(), expE4(), expE5(), expE6(),
		expF1(), expF2(),
		expX1(), expX2(), expX3(), expX4(), expX5(), expX6(), expX7(),
		expX8(), expX9(),
	}
}

// ByID finds one experiment.
func ByID(id string) (*Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return nil, false
}

// sweepPoint is one (n, k) measurement.
type sweepPoint struct {
	n, k  int
	value float64
	extra string // free-form annotation column
}

// registrySweep runs a named process/metric from the engine's process
// registry over the ring grid ns × ks (one fixed placement/pointer cell
// per point) and returns the measured values as sweep points, annotated
// with the limit-cycle period where the metric reports one. Experiments
// whose measurement is exactly a registered (process, metric) pair go
// through here, so they exercise the same code path as sweeps and the
// CLI; bespoke measurements (trial estimators, deployments, trackers) use
// runSweep below.
func registrySweep(cfg Config, ns, ks []int, process, metric string,
	placement engine.Placement, pointer engine.Pointer) ([]sweepPoint, error) {
	rows, err := engine.New(engine.Workers(cfg.Workers)).Run(engine.SweepSpec{
		Topologies: []engine.Topo{"ring"},
		Sizes:      ns,
		Agents:     ks,
		Placements: []engine.Placement{placement},
		Pointers:   []engine.Pointer{pointer},
		Process:    process,
		Metric:     metric,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	points := make([]sweepPoint, 0, len(rows))
	for _, r := range rows {
		if r.Err != "" {
			return nil, fmt.Errorf("expt: point n=%d k=%d: %s", r.N, r.K, r.Err)
		}
		p := sweepPoint{n: r.N, k: r.K, value: r.Value}
		if r.Period != 0 {
			p.extra = fmt.Sprintf(" (period %d)", r.Period)
		}
		points = append(points, p)
	}
	// The engine's canonical order is sizes then agents; normalize like
	// runSweep so tables list points by (n, k) even with unsorted axes.
	sort.SliceStable(points, func(a, b int) bool {
		if points[a].n != points[b].n {
			return points[a].n < points[b].n
		}
		return points[a].k < points[b].k
	})
	return points, nil
}

// runSweep evaluates measure on the cross product of ns × ks on the
// experiment engine's deterministic parallel pool (bounded by cfg.Workers),
// returning points in (n, k) grid order regardless of scheduling.
func runSweep(cfg Config, ns, ks []int, measure func(n, k int) (float64, string, error)) ([]sweepPoint, error) {
	type job struct{ n, k int }
	jobs := make([]job, 0, len(ns)*len(ks))
	for _, n := range ns {
		for _, k := range ks {
			jobs = append(jobs, job{n, k})
		}
	}
	points, err := engine.Map(cfg.Workers, len(jobs), func(i int) (sweepPoint, error) {
		j := jobs[i]
		v, extra, err := measure(j.n, j.k)
		if err != nil {
			return sweepPoint{}, fmt.Errorf("expt: point n=%d k=%d: %w", j.n, j.k, err)
		}
		return sweepPoint{n: j.n, k: j.k, value: v, extra: extra}, nil
	})
	if err != nil {
		return nil, err
	}
	// Tables list points by (n, k) even when the caller's axes are
	// unsorted.
	sort.SliceStable(points, func(a, b int) bool {
		if points[a].n != points[b].n {
			return points[a].n < points[b].n
		}
		return points[a].k < points[b].k
	})
	return points, nil
}

// coverSweepTable renders a sweep with a prediction column and collects the
// normalized ratios for the shape check.
func coverSweepTable(title string, points []sweepPoint, predict func(n, k int) float64,
	ratioName string, limit float64, notes ...string) (*Table, ShapeCheck) {
	table := &Table{
		Title:   title,
		Headers: []string{"n", "k", "measured", "theta-shape", "ratio"},
		Notes:   notes,
	}
	var ratios []float64
	for _, p := range points {
		pred := predict(p.n, p.k)
		ratio := p.value / pred
		ratios = append(ratios, ratio)
		row := []string{
			fmt.Sprintf("%d", p.n),
			fmt.Sprintf("%d", p.k),
			fmt.Sprintf("%.0f%s", p.value, p.extra),
			fmt.Sprintf("%.0f", pred),
			fmt.Sprintf("%.3f", ratio),
		}
		table.Rows = append(table.Rows, row)
	}
	return table, newShapeCheck(ratioName, ratios, limit)
}

// sweepSizes returns the (ns, ks, trials) for cover-time sweeps at a scale.
func sweepSizes(s Scale) (ns, ks []int, trials int) {
	if s == Full {
		return []int{512, 1024, 2048, 4096}, []int{2, 4, 8, 16, 32, 64}, 32
	}
	return []int{256, 512, 1024}, []int{2, 4, 8, 16}, 12
}

// returnSweepSizes returns the (ns, ks) for return-time sweeps.
func returnSweepSizes(s Scale) (ns, ks []int) {
	if s == Full {
		return []int{256, 512, 1024, 2048}, []int{2, 4, 8, 16}
	}
	return []int{128, 256, 512}, []int{2, 4, 8}
}
