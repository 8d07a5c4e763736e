package rotorring

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestRunSweepMatchesSingleSim: a 1-cell sweep reproduces exactly what the
// single-simulation facade measures.
func TestRunSweepMatchesSingleSim(t *testing.T) {
	g := Ring(96)
	sim, err := newRotorSim(g, Agents(4),
		Place(PlaceEqualSpacing), Pointers(PointerNegative))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.CoverTime(0)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := RunSweep(SweepSpec{
		Sizes:      []int{96},
		Agents:     []int{4},
		Placements: []PlacementPolicy{PlaceEqualSpacing},
		Pointers:   []PointerPolicy{PointerNegative},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if int64(r.Value) != want {
		t.Errorf("sweep cover %v, facade cover %d", r.Value, want)
	}
	if r.Placement != PlaceEqualSpacing || r.Pointer != PointerNegative {
		t.Errorf("row policies not round-tripped: %+v", r)
	}
}

// TestSweepWritersDeterministic: serialized sweep output is identical for
// any worker count, including with randomized configurations.
func TestSweepWritersDeterministic(t *testing.T) {
	spec := SweepSpec{
		Sizes:      []int{32, 48},
		Agents:     []int{2, 4},
		Placements: []PlacementPolicy{PlaceRandom},
		Pointers:   []PointerPolicy{PointerRandom},
		Replicas:   3,
		Seed:       99,
	}
	var a, b, c bytes.Buffer
	if err := WriteSweep(&a, spec, "jsonl", 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweep(&b, spec, "jsonl", 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL differs between 1 and 8 workers")
	}
	if err := WriteSweep(&c, spec, "csv", 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if want := 1 + 4*3; len(lines) != want {
		t.Errorf("CSV has %d lines, want %d", len(lines), want)
	}
}

// TestMixedTopologySweepPublic: the public API runs a heterogeneous
// topology grid in one sweep, with canonicalized specs, resolved instance
// specs and graph metadata on every row, deterministically across worker
// counts.
func TestMixedTopologySweepPublic(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring", "Grid:8x4", "rr:3"},
		Sizes:      []int{32},
		Agents:     []int{2},
		Replicas:   2,
		Seed:       13,
	}
	rows, err := RunSweep(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows8, err := RunSweep(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	if !reflect.DeepEqual(rows, rows8) {
		t.Error("rows differ between 1 and 8 workers")
	}
	wantSpecs := []string{"ring:32", "ring:32", "grid:8x4", "grid:8x4", "rr:3x32", "rr:3x32"}
	wantTopos := []string{"ring", "ring", "grid:8x4", "grid:8x4", "rr:3", "rr:3"}
	for i, r := range rows {
		if r.Err != "" {
			t.Fatalf("row %d (%s) failed: %s", i, r.Topology, r.Err)
		}
		if r.Spec != wantSpecs[i] || r.Topology != wantTopos[i] {
			t.Errorf("row %d: topology=%q spec=%q, want %q/%q",
				i, r.Topology, r.Spec, wantTopos[i], wantSpecs[i])
		}
		if r.Edges == 0 || r.MaxDegree == 0 {
			t.Errorf("row %d missing graph metadata: %+v", i, r)
		}
	}

	// JSONL carries the new self-describing fields.
	var buf bytes.Buffer
	if err := WriteSweep(&buf, spec, "jsonl", 4); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"spec":"rr:3x32"`, `"edges":`, `"max_degree":`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSONL missing %s:\n%s", want, buf.String())
		}
	}
}

// TestParseTopoPublic: the re-exported spec parser canonicalizes and
// rejects malformed specs.
func TestParseTopoPublic(t *testing.T) {
	topo, err := ParseTopo("Grid:5")
	if err != nil || topo != Topo("grid:5x5") {
		t.Errorf("ParseTopo(Grid:5) = (%q, %v)", topo, err)
	}
	if _, err := ParseTopo("moebius"); err == nil {
		t.Error("bad spec accepted")
	}
	names := TopologyNames()
	if len(names) < 8 {
		t.Errorf("TopologyNames() = %v, want at least the eight built-ins", names)
	}
}

// TestRunSweepWalk: the walk process produces per-replica trials whose
// sample varies.
func TestRunSweepWalk(t *testing.T) {
	rows, err := RunSweep(SweepSpec{
		Sizes:    []int{48},
		Agents:   []int{3},
		Process:  "walk",
		Replicas: 6,
		Seed:     5,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	distinct := map[float64]bool{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
		if r.Pointer != 0 {
			t.Errorf("walk row carries pointer policy %v", r.Pointer)
		}
		distinct[r.Value] = true
	}
	if len(distinct) < 2 {
		t.Error("walk replicas all equal; trial seeds look shared")
	}
}

// TestSweepSchedules: the public Schedule surface — spec parsing, the
// schedule grid axis, row annotation, and the perturbation metrics — works
// through rotorring.RunSweep.
func TestSweepSchedules(t *testing.T) {
	if _, err := ParseSchedule("bogus"); err == nil {
		t.Error("ParseSchedule accepted an unknown family")
	}
	canon, err := ParseSchedule("EDGEFAIL:t=9")
	if err != nil || canon != "edgefail:t=9,count=1" {
		t.Errorf("ParseSchedule canonicalization: %q, %v", canon, err)
	}
	names := ScheduleNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"none", "delay", "edgefail", "churn", "reset"} {
		if !found[want] {
			t.Errorf("ScheduleNames() missing %q (got %v)", want, names)
		}
	}

	rows, err := RunSweep(SweepSpec{
		Sizes:      []int{48},
		Agents:     []int{3},
		Placements: []PlacementPolicy{PlaceRandom},
		Pointers:   []PointerPolicy{PointerRandom},
		Schedules:  []Schedule{"none", "delay:p=0.5,until=64"},
		Replicas:   2,
		Seed:       13,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if r.Err != "" {
			t.Fatalf("row %d: %s", i, r.Err)
		}
		wantSched := ""
		if i >= 2 {
			wantSched = "delay:p=0.5,until=64"
		}
		if r.Schedule != wantSched {
			t.Errorf("row %d schedule = %q, want %q", i, r.Schedule, wantSched)
		}
	}
	// Same job seeds across the schedule axis: delayed rows are directly
	// comparable and never faster.
	for rep := 0; rep < 2; rep++ {
		if rows[rep].Seed != rows[2+rep].Seed {
			t.Errorf("replica %d: job seed depends on the schedule", rep)
		}
		if rows[2+rep].Value < rows[rep].Value {
			t.Errorf("replica %d: delayed cover %v < pristine %v", rep, rows[2+rep].Value, rows[rep].Value)
		}
	}

	// The re-stabilization metric through the public API.
	rrows, err := RunSweep(SweepSpec{
		Sizes:      []int{32},
		Agents:     []int{2},
		Placements: []PlacementPolicy{PlaceRandom},
		Pointers:   []PointerPolicy{PointerRandom},
		Metric:     "restab_time",
		Schedules:  []Schedule{"edgefail:t=512,count=1"},
		Seed:       4,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rrows[0].Err != "" {
		t.Fatal(rrows[0].Err)
	}
	if rrows[0].Value < 0 || rrows[0].Rounds <= 512 {
		t.Errorf("restab row implausible: value=%v rounds=%d", rrows[0].Value, rrows[0].Rounds)
	}
}
