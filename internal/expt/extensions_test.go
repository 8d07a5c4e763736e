package expt

import (
	"bytes"
	"testing"
)

// runExp executes the registered experiment id at quick scale.
func runExp(t *testing.T, id string, seed uint64, workers int) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	res, err := e.Run(Config{Scale: Quick, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestX9RestabilizationBound: the lock-in times measured through the
// restab_time metric stay within the O(D·|E|) bound, from the fault of an
// edgefail schedule (X9, Bampas et al.) and from round 0 of a random
// single-agent start (X6, Yanovski et al.), where every graph must also
// settle into its Eulerian cycle.
func TestX9RestabilizationBound(t *testing.T) {
	cases := []struct {
		id    string
		seeds []uint64
	}{
		{"X9", []uint64{11}},
		{"X6", []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			res := runExp(t, c.id, seed, 2)
			if len(res.Shapes) == 0 {
				t.Fatalf("%s reports no shape check", c.id)
			}
			for _, s := range res.Shapes {
				if !s.OK {
					t.Errorf("%s seed %d: shape %q violated: spread %.2f limit %.2f", c.id, seed, s.Name, s.Spread, s.Limit)
				}
			}
			if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
				t.Fatalf("%s reports no measurements", c.id)
			}
			for _, tab := range res.Tables {
				for col, h := range tab.Headers {
					if h != "Eulerian" {
						continue
					}
					for _, row := range tab.Rows {
						if row[col] != "true" {
							t.Errorf("%s seed %d: row %v is not Eulerian", c.id, seed, row)
						}
					}
				}
			}
		}
	}
}

// TestX9Deterministic: each experiment — X9's edge choice included — is a
// pure function of (scale, seed); workers never leak in.
func TestX9Deterministic(t *testing.T) {
	for _, id := range []string{"X9", "X6"} {
		var out1, out2 bytes.Buffer
		runExp(t, id, 7, 1).Render(&out1)
		runExp(t, id, 7, 2).Render(&out2)
		if out1.String() != out2.String() {
			t.Fatalf("%s differs between 1 and 2 workers:\n%s\nvs\n%s", id, out1.String(), out2.String())
		}
	}
}
