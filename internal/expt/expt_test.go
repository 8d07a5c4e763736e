package expt

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "F1", "F2",
		"X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9"}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d: id %s, want %s", i, e.ID, wantIDs[i])
		}
		if e.Claim == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely declared", e.ID)
		}
	}
	if _, ok := ByID("e3"); !ok {
		t.Error("ByID not case-insensitive")
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("ByID invented an experiment")
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != Quick {
		t.Errorf("quick: %v %v", s, err)
	}
	if s, err := ParseScale("FULL"); err != nil || s != Full {
		t.Errorf("full: %v %v", s, err)
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}},
		Notes:   []string{"n1"},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# demo", "a,b", `"x,y"`, "# n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "bbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a    bbb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestShapeCheck(t *testing.T) {
	sc := newShapeCheck("x", []float64{1, 2, 3}, 4)
	if !sc.OK || sc.Spread != 3 {
		t.Errorf("shape = %+v", sc)
	}
	sc = newShapeCheck("x", []float64{1, 5}, 4)
	if sc.OK {
		t.Errorf("shape = %+v", sc)
	}
	sc = newShapeCheck("x", []float64{0, 1}, 4)
	if sc.OK {
		t.Error("non-positive ratio accepted")
	}
}

// TestAllExperimentsQuick is the integration test of the whole harness:
// every registered experiment must run at Quick scale, produce tables, and
// pass all of its Θ-shape checks.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite skipped in -short mode")
	}
	cfg := Config{Scale: Quick, Seed: 20230601}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.PaperRef, err)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tab.Title)
				}
				for i, row := range tab.Rows {
					if len(row) != len(tab.Headers) {
						t.Errorf("%s: table %q row %d has %d cells for %d headers",
							e.ID, tab.Title, i, len(row), len(tab.Headers))
					}
				}
				var csvBuf bytes.Buffer
				if err := tab.WriteCSV(&csvBuf); err != nil {
					t.Errorf("%s: CSV export: %v", e.ID, err)
				}
			}
			for _, s := range res.Shapes {
				if !s.OK {
					t.Errorf("%s: shape check %q failed (value %.3f, limit %.3f)",
						e.ID, s.Name, s.Spread, s.Limit)
				}
			}
			var buf bytes.Buffer
			res.Render(&buf)
			if buf.Len() == 0 {
				t.Errorf("%s rendered nothing", e.ID)
			}
			t.Logf("%s output:\n%s", e.ID, buf.String())
		})
	}
}
