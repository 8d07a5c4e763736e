package rotorring_test

import (
	"context"
	"testing"

	"rotorring"
)

// TestRunContextObserverStride: observers sample exactly at stride
// multiples of the absolute round count, starting at the current round.
func TestRunContextObserverStride(t *testing.T) {
	p, err := rotorring.New(rotorring.Ring(64), rotorring.RotorRouter(),
		rotorring.Agents(4), rotorring.Place(rotorring.PlaceEqualSpacing))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := rotorring.CoverageProbe(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rotorring.RunContext(context.Background(), p, 100, cov); err != nil {
		t.Fatal(err)
	}
	pts := cov.Points()
	if len(pts) != 11 { // rounds 0, 10, ..., 100
		t.Fatalf("sampled %d points, want 11: %+v", len(pts), pts)
	}
	for i, pt := range pts {
		if pt.Round != int64(i*10) {
			t.Errorf("point %d at round %d, want %d", i, pt.Round, i*10)
		}
		if i > 0 && pt.Value < pts[i-1].Value {
			t.Errorf("coverage decreased at %d: %+v", i, pts)
		}
	}

	// A second run continues the absolute-round sampling grid, closing
	// with a forced terminal sample on the off-stride final round — and
	// its initial sample of round 100 (already recorded by the first run)
	// must not duplicate an x-value in the accumulated series.
	if err := rotorring.RunContext(context.Background(), p, 15, cov); err != nil {
		t.Fatal(err)
	}
	pts = cov.Points()
	if len(pts) != 13 { // 0..100 by 10, then 110, 115
		t.Fatalf("chained runs recorded %d points, want 13: %+v", len(pts), pts)
	}
	seen := map[int64]bool{}
	for _, pt := range pts {
		if seen[pt.Round] {
			t.Errorf("round %d recorded twice", pt.Round)
		}
		seen[pt.Round] = true
	}
	lastTwo := pts[len(pts)-2:]
	if lastTwo[0].Round != 110 || lastTwo[1].Round != 115 {
		t.Errorf("continued sampling rounds %d, %d; want 110, 115",
			lastTwo[0].Round, lastTwo[1].Round)
	}
}

// TestHistogramProbeOnWalk: the histogram probe sees every walker at each
// sample.
func TestHistogramProbeOnWalk(t *testing.T) {
	const k = 6
	g := rotorring.Ring(64)
	p, err := rotorring.New(g, rotorring.RandomWalk(),
		rotorring.Agents(k), rotorring.Place(rotorring.PlaceEqualSpacing))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := rotorring.HistogramProbe(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := rotorring.RunContext(context.Background(), p, 50, hist); err != nil {
		t.Fatal(err)
	}
	perRound := map[int64]float64{}
	for _, pt := range hist.Points() {
		perRound[pt.Round] += pt.Value
	}
	if len(perRound) != 3 { // rounds 0, 25, 50
		t.Fatalf("sampled rounds %v, want 3 samples", perRound)
	}
	for round, total := range perRound {
		if total != k {
			t.Errorf("round %d: histogram total %v, want %d walkers", round, total, k)
		}
	}
}

// TestDomainCountProbeOnRotor: the domain probe exercises the
// DomainAnalyzer capability of the rotor on the ring.
func TestDomainCountProbeOnRotor(t *testing.T) {
	p, err := rotorring.New(rotorring.Ring(48), rotorring.RotorRouter(),
		rotorring.Agents(4), rotorring.Place(rotorring.PlaceEqualSpacing),
		rotorring.Pointers(rotorring.PointerNegative))
	if err != nil {
		t.Fatal(err)
	}
	dom, err := rotorring.DomainCountProbe(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := rotorring.RunContext(context.Background(), p, 100, dom); err != nil {
		t.Fatal(err)
	}
	pts := dom.Points()
	if len(pts) == 0 {
		t.Fatal("no domain counts sampled")
	}
	for _, pt := range pts {
		if pt.Value < 1 || pt.Value > 4 {
			t.Errorf("domain count %v out of [1,4] at round %d", pt.Value, pt.Round)
		}
	}
}

// TestSweepProbesPublicAPI: probes stream through the public sweep API and
// ride on rows.
func TestSweepProbesPublicAPI(t *testing.T) {
	rows, err := rotorring.RunSweep(rotorring.SweepSpec{
		Sizes:      []int{48},
		Agents:     []int{3},
		Placements: []rotorring.PlacementPolicy{rotorring.PlaceEqualSpacing},
		Pointers:   []rotorring.PointerPolicy{rotorring.PointerNegative},
		Probes:     []rotorring.ProbeSpec{{Name: "coverage", Stride: 32}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Process != "rotor" || rows[0].Metric != "cover" {
		t.Errorf("row names: %q %q", rows[0].Process, rows[0].Metric)
	}
	if len(rows[0].Series) == 0 {
		t.Error("no series on public sweep row")
	}
}
