package engine

import (
	"testing"

	"rotorring/internal/xrand"
)

// TestFillAtMatchesFill pins the two hold-draw passes against each other:
// fillAt, which the schedule runner takes before generic-loop rounds, must
// write at each listed node exactly what fill, the all-node pass of the
// flat held kernels, writes there, and must leave every other entry as it
// was. Counts run 0–40, through the tiny rows, the width-16 rows and the
// scratch generator; node lists are random subsets in random order, as an
// occupied list is.
func TestFillAtMatchesFill(t *testing.T) {
	rng := xrand.New(0x4e1d)
	const maxCount, stale = 40, -7
	var seen [maxCount + 1]bool
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		hd := newHeldDraw(0.02+0.96*rng.Float64(), rng.Uint64())
		base := hd.roundBase(int64(rng.Intn(1 << 20)))
		counts := make([]int64, n)
		for v := range counts {
			counts[v] = int64(rng.Intn(maxCount + 1))
		}
		want := make([]int64, n)
		hd.fill(want, counts, base)

		nodes := rng.Perm(n)[:rng.Intn(n+1)]
		listed := make([]bool, n)
		for _, v := range nodes {
			listed[v] = true
			seen[counts[v]] = true
		}
		got := make([]int64, n)
		for v := range got {
			got[v] = stale
		}
		hd.fillAt(got, counts, nodes, base)
		for v := range got {
			switch {
			case listed[v] && got[v] != want[v]:
				t.Fatalf("trial %d: node %d (count %d) drew %d listed, %d in the all-node pass",
					trial, v, counts[v], got[v], want[v])
			case !listed[v] && got[v] != stale:
				t.Fatalf("trial %d: unlisted node %d overwritten with %d", trial, v, got[v])
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("no listed node drew with count %d", c)
		}
	}
}
