package engine

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"rotorring/internal/graph"
)

// TestParseScheduleRoundTrip: canonical forms, normalization, and rejected
// specs of the schedule grammar.
func TestParseScheduleRoundTrip(t *testing.T) {
	good := map[string]string{
		"none":                          "none",
		"  NONE ":                       "none",
		"delay:p=0.25":                  "delay:p=0.25",
		"Delay:until=100,p=0.5":         "delay:p=0.5,until=100",
		"edgefail:t=1000":               "edgefail:t=1000,count=1",
		"edgefail:count=4,t=1000":       "edgefail:t=1000,count=4",
		"EDGEFAIL:t=9,repair=11":        "edgefail:t=9,count=1,repair=11",
		"churn:join=8@500":              "churn:join=8@500",
		"churn:leave=4@900,join=8@500":  "churn:join=8@500,leave=4@900",
		"churn:leave=1@7":               "churn:leave=1@7",
		"reset:t=256":                   "reset:t=256",
		"edgefail:t=3,count=2,repair=8": "edgefail:t=3,count=2,repair=8",
	}
	for in, want := range good {
		got, err := ParseSchedule(in)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", in, err)
			continue
		}
		if string(got) != want {
			t.Errorf("ParseSchedule(%q) = %q, want %q", in, got, want)
		}
		// The canonical form is a parse fixed point.
		again, err := ParseSchedule(string(got))
		if err != nil || again != got {
			t.Errorf("canonical %q is not a fixed point: %q, %v", got, again, err)
		}
	}
	bad := []string{
		"", "unknown", "none:x=1", "delay", "delay:p=0", "delay:p=1.5",
		"delay:p=0.5,p=0.5", "delay:q=1", "edgefail", "edgefail:count=2",
		"edgefail:t=5,repair=5", "edgefail:t=5,repair=4", "edgefail:t=-2",
		"churn", "churn:join=0@5", "churn:join=5", "churn:join=5@",
		"reset", "reset:t=0", "delay:p=0.25,until=0",
	}
	for _, in := range bad {
		if got, err := ParseSchedule(in); err == nil {
			t.Errorf("ParseSchedule(%q) = %q, want error", in, got)
		}
	}
}

// FuzzParseSchedule: whatever the input, a successful parse returns a
// canonical form that re-parses to itself with an identical compiled plan,
// and parsing never panics.
func FuzzParseSchedule(f *testing.F) {
	for _, s := range []string{
		"none", "delay:p=0.25", "delay:p=0.5,until=100",
		"edgefail:t=1000,count=4", "edgefail:t=9,repair=11",
		"churn:join=8@500,leave=4@900", "reset:t=256",
		"  Delay : p = 0.125 ", "delay:p=1e-3", "edgefail:t=5,count=0",
		"churn:join=1@1", "none:x", ":::", "delay:p=nan", "reset:t=99999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		inst, err := parseSchedule(s)
		if err != nil {
			return
		}
		again, err := parseSchedule(inst.canonical)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", inst.canonical, s, err)
		}
		if again.canonical != inst.canonical {
			t.Fatalf("canonical %q is not a fixed point: %q", inst.canonical, again.canonical)
		}
		if !reflect.DeepEqual(again.plan, inst.plan) {
			t.Fatalf("canonical %q compiles differently: %+v vs %+v", inst.canonical, again.plan, inst.plan)
		}
		if inst.plan.BudgetFactor < 1 {
			t.Fatalf("%q: budget factor %d < 1", inst.canonical, inst.plan.BudgetFactor)
		}
	})
}

// mixedScheduleSpec sweeps every built-in schedule family next to "none",
// with randomized placement and pointers, on both processes' shared grid.
func mixedScheduleSpec(process string) SweepSpec {
	schedules := []Schedule{
		"none", "edgefail:t=12,count=2,repair=40", "churn:join=3@8,leave=2@16",
	}
	if process == ProcRotor {
		// Held rounds and pointer resets are rotor capabilities.
		schedules = append(schedules, "delay:p=0.5,until=64", "reset:t=10")
	}
	return SweepSpec{
		Topologies: []Topo{"ring", "grid:6x5"},
		Sizes:      []int{32},
		Agents:     []int{3},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Process:    process,
		Schedules:  schedules,
		Replicas:   2,
		Seed:       271828,
	}
}

// TestScheduledSweepDeterministic is the acceptance contract for the
// schedule subsystem: mixed scheduled sweeps are byte-identical at 1 vs 8
// workers, for both processes.
func TestScheduledSweepDeterministic(t *testing.T) {
	for _, proc := range []string{ProcRotor, ProcWalk} {
		t.Run(proc, func(t *testing.T) {
			spec := mixedScheduleSpec(proc)
			rows1, jsonl1, csv1 := runToBytes(t, New(Workers(1)), spec)
			rows8, jsonl8, csv8 := runToBytes(t, New(Workers(8)), spec)
			if !reflect.DeepEqual(rows1, rows8) {
				t.Fatalf("rows differ between 1 and 8 workers")
			}
			if !bytes.Equal(jsonl1, jsonl8) {
				t.Errorf("JSONL output differs between 1 and 8 workers")
			}
			if !bytes.Equal(csv1, csv8) {
				t.Errorf("CSV output differs between 1 and 8 workers")
			}
			for _, r := range rows1 {
				if r.Err != "" {
					t.Errorf("job cell=%d (schedule %q) replica=%d failed: %s",
						r.Index, r.Cell.Schedule, r.Replica, r.Err)
				}
			}
		})
	}
}

// TestScheduleSharesInitialConfiguration: job seeds do not depend on the
// schedule, so the same cell under "none" and a schedule whose events never
// fire measures identically — directly comparable rows.
func TestScheduleSharesInitialConfiguration(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{48},
		Agents:     []int{4},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		// The fault round is far beyond the cover time, so the scheduled
		// cell runs exactly the pristine trajectory.
		Schedules: []Schedule{"none", "edgefail:t=1000000"},
		Replicas:  2,
		Seed:      99,
	}
	rows, err := New(Workers(4)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for rep := 0; rep < 2; rep++ {
		none, sched := rows[rep], rows[2+rep]
		if none.Seed != sched.Seed {
			t.Errorf("replica %d: job seed depends on the schedule (%d vs %d)", rep, none.Seed, sched.Seed)
		}
		if none.Value != sched.Value || none.Rounds != sched.Rounds {
			t.Errorf("replica %d: unfired schedule changes the measurement (%v/%d vs %v/%d)",
				rep, none.Value, none.Rounds, sched.Value, sched.Rounds)
		}
	}
}

// TestDelayOnlySlowsCoverage: Lemma 1/3 through the registry — for every
// shared initial configuration, the delayed cover time dominates the
// pristine one.
func TestDelayOnlySlowsCoverage(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Schedules:  []Schedule{"none", "delay:p=0.5"},
		Replicas:   3,
		Seed:       7,
	}
	rows, err := New(Workers(4)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+5 < len(rows); i += 6 { // 2 schedules x 3 replicas per (k)
		for rep := 0; rep < 3; rep++ {
			none, delayed := rows[i+rep], rows[i+3+rep]
			if none.Err != "" || delayed.Err != "" {
				t.Fatalf("unexpected error rows: %q / %q", none.Err, delayed.Err)
			}
			if delayed.Value < none.Value {
				t.Errorf("k=%d replica=%d: delayed cover %v < pristine %v",
					none.K, rep, delayed.Value, none.Value)
			}
		}
	}
}

// TestScheduleCapabilityRows: a schedule the process cannot support fails
// as a per-job row naming process and schedule, not a crash — and the rest
// of the grid still runs.
func TestScheduleCapabilityRows(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{24},
		Agents:     []int{3},
		Process:    ProcWalk,
		Schedules:  []Schedule{"delay:p=0.5", "churn:join=2@4"},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if !strings.Contains(rows[0].Err, "does not support schedule") ||
		!strings.Contains(rows[0].Err, "walk") {
		t.Errorf("walk+delay row error = %q, want capability failure", rows[0].Err)
	}
	if rows[1].Err != "" {
		t.Errorf("walk+churn should run, got error %q", rows[1].Err)
	}
}

// TestScheduleSpecValidation: malformed schedules and unsupported
// metric/schedule combinations fail the sweep before any worker starts.
func TestScheduleSpecValidation(t *testing.T) {
	base := SweepSpec{Sizes: []int{16}, Agents: []int{2}}

	bad := base
	bad.Schedules = []Schedule{"bogus:t=1"}
	if _, err := New(Workers(1)).Run(bad); err == nil {
		t.Error("unknown schedule family accepted")
	}

	ret := base
	ret.Metric = MetricReturn
	ret.Schedules = []Schedule{"reset:t=5"}
	if _, err := New(Workers(1)).Run(ret); err == nil {
		t.Error("return metric accepted a schedule")
	}

	restab := base
	restab.Metric = MetricRestab
	if _, err := New(Workers(1)).Run(restab); err == nil {
		t.Error("restab_time accepted a sweep with no faulted schedule")
	}

	restab.Schedules = []Schedule{"delay:p=0.5"} // unbounded: no fault boundary
	if _, err := New(Workers(1)).Run(restab); err == nil {
		t.Error("restab_time accepted an unbounded delay schedule")
	}

	restab.Schedules = []Schedule{"edgefail:t=64"}
	if _, err := New(Workers(1)).Run(restab); err != nil {
		t.Errorf("restab_time rejected a faulted schedule: %v", err)
	}
}

// TestScheduledBudgetRule: the automatic budget of a perturbed cell is the
// unperturbed automatic budget times the plan's factor plus its offset, so
// a late fault cannot eat the measurement budget; an explicit MaxRounds is
// taken literally.
func TestScheduledBudgetRule(t *testing.T) {
	g := mustBuildGraph(t, "ring", 32)
	auto := AutoBudget(g, ProcRotor, MetricCover)

	inst, err := parseSchedule("edgefail:t=5000,count=1")
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Process: ProcRotor, Metric: MetricCover}
	cell := Cell{sched: inst}
	if got, want := budget(&spec, cell, g), auto*inst.plan.BudgetFactor+5000; got != want {
		t.Errorf("scheduled budget = %d, want %d", got, want)
	}
	if inst.plan.BudgetFactor < 2 {
		t.Errorf("edgefail budget factor = %d, want >= 2", inst.plan.BudgetFactor)
	}

	none, err := parseSchedule("none")
	if err != nil {
		t.Fatal(err)
	}
	if got := budget(&spec, Cell{sched: none}, g); got != auto {
		t.Errorf("unscheduled budget = %d, want %d", got, auto)
	}

	spec.MaxRounds = 777
	if got := budget(&spec, cell, g); got != 777 {
		t.Errorf("explicit MaxRounds not taken literally: %d", got)
	}

	// The delay factor scales with the expected slow-down and stays
	// bounded because p is capped.
	slow, err := parseSchedule("delay:p=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if f := slow.plan.BudgetFactor; f < 10 || f > 200 {
		t.Errorf("delay:p=0.9 budget factor = %d, want a bounded multiple of 1/(1-p)", f)
	}
}

// TestRestabMetricOnCutRing: X9's acceptance shape at test scale — after a
// single edge failure on ring:n, the measured re-stabilization time stays
// within the O(D·|E|) bound of the cut graph across sizes.
func TestRestabMetricOnCutRing(t *testing.T) {
	for _, n := range []int{24, 48} {
		fault := int64(8 * n * n)
		rows, err := New(Workers(2)).Run(SweepSpec{
			Topologies: []Topo{"ring"},
			Sizes:      []int{n},
			Agents:     []int{2},
			Placements: []Placement{PlaceRandom},
			Pointers:   []Pointer{PtrRandom},
			Metric:     MetricRestab,
			Schedules:  []Schedule{Schedule("edgefail:t=" + itoa(fault) + ",count=1")},
			Seed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Err != "" {
			t.Fatalf("n=%d: %s", n, r.Err)
		}
		bound := 2 * float64(n-1) * float64(n-1) // 2·D·|E| of the cut ring
		if r.Value < 0 || r.Value > bound {
			t.Errorf("n=%d: restab %v outside [0, %v]", n, r.Value, bound)
		}
		if r.Rounds <= fault {
			t.Errorf("n=%d: measurement never passed the fault round (%d <= %d)", n, r.Rounds, fault)
		}
		if r.Period <= 0 {
			t.Errorf("n=%d: no limit cycle period reported", n)
		}
	}
}

// TestCoverAfterFaultMetric: re-coverage after a fault is measured from the
// fault round and works for both processes.
func TestCoverAfterFaultMetric(t *testing.T) {
	for _, proc := range []string{ProcRotor, ProcWalk} {
		rows, err := New(Workers(2)).Run(SweepSpec{
			Topologies: []Topo{"ring"},
			Sizes:      []int{32},
			Agents:     []int{4},
			Placements: []Placement{PlaceEqual},
			Process:    proc,
			Metric:     MetricCoverAfterFault,
			Schedules:  []Schedule{"edgefail:t=200,count=1"},
			Seed:       8,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Err != "" {
			t.Fatalf("%s: %s", proc, r.Err)
		}
		if r.Value <= 0 || r.Value > math.MaxInt32 {
			t.Errorf("%s: cover_after_fault = %v, want a positive round count", proc, r.Value)
		}
		if r.Rounds <= 200 {
			t.Errorf("%s: measurement never passed the fault round (%d)", proc, r.Rounds)
		}
	}
}

// TestScheduledProbesSpanFaultEpochs: probe series attached to a scheduled
// job sample on both sides of the fault round.
func TestScheduledProbesSpanFaultEpochs(t *testing.T) {
	rows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{1},
		Placements: []Placement{PlaceSingle},
		Pointers:   []Pointer{PtrToward}, // the Theta(n^2) worst case: plenty of rounds
		Schedules:  []Schedule{"edgefail:t=64,count=1"},
		Probes:     []ProbeSpec{{Name: "coverage", Stride: 16}},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	var before, after bool
	for _, pt := range r.Series {
		if pt.Round < 64 {
			before = true
		}
		if pt.Round > 64 {
			after = true
		}
	}
	if !before || !after {
		t.Errorf("probe series does not span the fault epoch (before=%v after=%v, %d points)",
			before, after, len(r.Series))
	}
}

// itoa formats an int64 without importing strconv at every call site.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// mustBuildGraph builds a registered topology for tests.
func mustBuildGraph(t *testing.T, topo string, n int) *graph.Graph {
	t.Helper()
	g, err := BuildTopo(Topo(topo), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
