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
	"strings"

	"rotorring/internal/engine"
	"rotorring/internal/stats"
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

// sweep runs spec on a cfg.Workers engine and fails on the first error
// row. Every measurement in this package that is a registered (process,
// metric) pair goes through here, so it exercises the same code path —
// job seeds, round budgets, kernel selection — as library sweeps and the
// CLI.
func sweep(cfg Config, spec engine.SweepSpec) ([]engine.Row, error) {
	rows, err := engine.New(engine.Workers(cfg.Workers)).Run(spec)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r.Err != "" {
			return nil, fmt.Errorf("expt: %s k=%d replica=%d: %s", r.Spec, r.K, r.Replica, r.Err)
		}
	}
	return rows, nil
}

// ring is the sweep of one registered (process, metric) pair over the ring
// grid ns × ks from one placement/pointer cell, run replicas times per
// point and seeded from cfg. Walks ignore the pointer.
func ring(cfg Config, process, metric string, ns, ks []int,
	placement engine.Placement, pointer engine.Pointer, replicas int) engine.SweepSpec {
	return engine.SweepSpec{
		Sizes:      ns,
		Agents:     ks,
		Placements: []engine.Placement{placement},
		Pointers:   []engine.Pointer{pointer},
		Process:    process,
		Metric:     metric,
		Replicas:   replicas,
		Seed:       cfg.Seed,
	}
}

// sweepPoint is one cell's measurement: the row of its first replica with
// Value replaced by the mean over all replicas, plus an annotation for the
// measured column.
type sweepPoint struct {
	engine.Row
	extra string
}

// cellPoints runs spec and folds each cell's replicas — adjacent in the
// engine's canonical order — into one point. Several replicas fold into
// their mean, annotated with its standard error and p95/mean (Lemma 16's
// high-probability bound implies a light upper tail, p95 within a small
// factor of the mean). A single replica keeps its value, annotated with
// the period where the metric reports one: the limit cycle for the rotor,
// the worst inter-visit gap for walks.
func cellPoints(cfg Config, spec engine.SweepSpec) ([]sweepPoint, error) {
	rows, err := sweep(cfg, spec)
	if err != nil {
		return nil, err
	}
	reps := max(spec.Replicas, 1)
	points := make([]sweepPoint, 0, len(rows)/reps)
	for i := 0; i < len(rows); i += reps {
		p := sweepPoint{Row: rows[i]}
		switch {
		case reps > 1:
			vs := make([]float64, reps)
			for j := range vs {
				vs[j] = rows[i+j].Value
			}
			p.Value = stats.Mean(vs)
			p.extra = fmt.Sprintf("±%.0f (p95/mean %.2f)", stats.StdErr(vs), stats.Quantile(vs, 0.95)/p.Value)
		case p.Period != 0 && p.Process == engine.ProcWalk:
			p.extra = fmt.Sprintf(" (max gap %d)", p.Period)
		case p.Period != 0:
			p.extra = fmt.Sprintf(" (period %d)", p.Period)
		}
		points = append(points, p)
	}
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
		pred := predict(p.N, p.K)
		ratio := p.Value / pred
		ratios = append(ratios, ratio)
		row := []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.0f%s", p.Value, p.extra),
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
