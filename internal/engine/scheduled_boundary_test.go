package engine

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/xrand"
)

// This file pins the schedule runner's boundary semantics — what happens
// when a planned event lands exactly on the round budget or exactly on the
// cover round — and the kernel re-specialization rule across fault epochs.
// Both are chunk-boundary questions (applyDue / nextEventRound), so each
// contract is asserted white-box on a scheduledProc and, where the sweep
// surface is involved, byte-compared across worker counts.

// buildScheduledRotor constructs a rotor process under the given schedule
// with a fully deterministic configuration: rebuilding with the same
// arguments yields a bit-identical starting state, so pristine and
// scheduled runs are directly comparable.
func buildScheduledRotor(t *testing.T, n, k int, seed uint64, schedule string) *scheduledProc {
	t.Helper()
	g := mustBuildGraph(t, "ring", n)
	rng := xrand.New(seed)
	env := &JobEnv{
		Graph: g,
		Cell: Cell{Topology: "ring", N: n, K: k,
			Placement: PlaceRandom, Pointer: PtrRandom},
		Positions: core.RandomPositions(n, k, rng),
		Seed:      seed,
		RNG:       rng,
	}
	p, err := newRotorProc(env)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := parseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newScheduledProc(p, ProcRotor, inst, env)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// coverRoundOf measures the pristine cover round of the deterministic
// configuration buildScheduledRotor produces for (n, k, seed).
func coverRoundOf(t *testing.T, n, k int, seed uint64) int64 {
	t.Helper()
	// A far-future event never fires, so this is the pristine trajectory.
	sp := buildScheduledRotor(t, n, k, seed, "edgefail:t=1000000000")
	c, err := sp.RunUntilCovered(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScheduleEventAtBudgetBoundary pins the budget edge of applyDue /
// nextEventRound: an event planned exactly at the round budget never fires
// — the budget is exhausted first — and a run whose cover round equals the
// budget exactly still succeeds.
func TestScheduleEventAtBudgetBoundary(t *testing.T) {
	const n, k, seed = 64, 2, 1311

	// Coverage of ring:64 with 2 agents needs far more than 40 rounds, so a
	// 40-round budget exhausts with the event at round 40 still unapplied.
	sp := buildScheduledRotor(t, n, k, seed, "edgefail:t=40,count=1")
	_, err := sp.RunUntilCovered(40)
	if !errors.Is(err, core.ErrNotCovered) {
		t.Fatalf("budget-bounded run: got err %v, want ErrNotCovered", err)
	}
	if got := sp.Round(); got != 40 {
		t.Fatalf("budget-bounded run stopped at round %d, want exactly 40", got)
	}
	if sp.next != 0 {
		t.Fatalf("event planned exactly at the budget round fired (next=%d); budget exhaustion must precede it", sp.next)
	}

	// The success side of the same edge: a budget equal to the cover round
	// is sufficient, one round less is not.
	cover := coverRoundOf(t, n, k, seed)
	if got, err := buildScheduledRotor(t, n, k, seed, "edgefail:t=1000000000").RunUntilCovered(cover); err != nil || got != cover {
		t.Fatalf("budget == cover round %d: got (%d, %v), want success at %d", cover, got, err, cover)
	}
	if _, err := buildScheduledRotor(t, n, k, seed, "edgefail:t=1000000000").RunUntilCovered(cover - 1); !errors.Is(err, core.ErrNotCovered) {
		t.Fatalf("budget == cover round - 1: got err %v, want ErrNotCovered", err)
	}
}

// TestScheduleEventAtCoverRound pins the cover-round edge: an event planned
// exactly at the round coverage completes never fires (coverage wins the
// tie), while the same event one round earlier does fire and perturbs the
// run.
func TestScheduleEventAtCoverRound(t *testing.T) {
	const n, k, seed = 64, 2, 1313
	cover := coverRoundOf(t, n, k, seed)

	at := buildScheduledRotor(t, n, k, seed, "edgefail:t="+itoa(cover)+",count=1")
	got, err := at.RunUntilCovered(64 * cover)
	if err != nil || got != cover {
		t.Fatalf("event at cover round %d: got (%d, %v), want the pristine cover round", cover, got, err)
	}
	if at.next != 0 {
		t.Fatalf("event planned exactly at the cover round fired (next=%d); coverage must win the tie", at.next)
	}

	before := buildScheduledRotor(t, n, k, seed, "edgefail:t="+itoa(cover-1)+",count=1")
	got, err = before.RunUntilCovered(64 * cover)
	if err != nil {
		t.Fatalf("event one round before coverage: %v", err)
	}
	if before.next != 1 {
		t.Fatalf("event planned one round before the cover round did not fire (next=%d)", before.next)
	}
	if got < cover-1 {
		t.Fatalf("perturbed run covered at %d, before the fault round %d", got, cover-1)
	}
}

// TestScheduleBudgetBoundaryWorkersPinned asserts the budget boundary on
// the sweep surface: with MaxRounds equal to the event round, scheduled
// rows measure exactly like unscheduled ones (the event never fires), and
// the whole sweep — budget-exhausted error rows included — is
// byte-identical at 1 versus 8 workers.
func TestScheduleBudgetBoundaryWorkersPinned(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{2},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Schedules:  []Schedule{"none", "edgefail:t=40,count=1"},
		MaxRounds:  40,
		Replicas:   2,
		Seed:       417,
	}
	rows1, jsonl1, csv1 := runToBytes(t, New(Workers(1)), spec)
	rows8, jsonl8, csv8 := runToBytes(t, New(Workers(8)), spec)
	if !bytes.Equal(jsonl1, jsonl8) || !bytes.Equal(csv1, csv8) {
		t.Fatalf("budget-boundary sweep differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(rowKeys(rows1), rowKeys(rows8)) {
		t.Fatalf("budget-boundary rows differ between 1 and 8 workers")
	}
	if len(rows1) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows1))
	}
	for rep := 0; rep < 2; rep++ {
		none, sched := rows1[rep], rows1[2+rep]
		if none.Err != sched.Err || none.Rounds != sched.Rounds || !sameValue(none.Value, sched.Value) {
			t.Errorf("replica %d: event at MaxRounds changed the measurement (%q/%d/%v vs %q/%d/%v)",
				rep, none.Err, none.Rounds, none.Value, sched.Err, sched.Rounds, sched.Value)
		}
	}
}

// rowKeys projects rows onto their comparable fields (Value may be NaN on
// error rows, which reflect.DeepEqual would treat as unequal).
func rowKeys(rows []Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(r.Cell.Schedule) + "|" + itoa(int64(r.Replica)) + "|" + itoa(r.Rounds) + "|" + r.Err
	}
	return keys
}

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestScheduledKernelRespecializesAcrossFaultEpochs is the epoch
// re-specialization contract on the scheduled runner: a rotor job on the
// ring runs its ring tier, an edge failure degrades it to the generic
// engine (the cut ring's ports are no longer the canonical ring shape), and
// the repair — which restores the pristine topology — re-specializes back
// to the same tier. KernelName is asserted in every epoch, for a dense
// population (the flat ring kernel) and a sparse one (the sparse round).
func TestScheduledKernelRespecializesAcrossFaultEpochs(t *testing.T) {
	for _, tc := range []struct {
		k    int
		tier string
	}{
		// 12 agents on 48 nodes reach the density threshold (k ≥ n/4), so
		// KernelAuto selects the ring kernel exactly as a sweep job would;
		// 3 agents stay below it and run the sparse ring round.
		{12, "ring"},
		{3, "ring-sparse"},
	} {
		sp := buildScheduledRotor(t, 48, tc.k, 2201, "edgefail:t=50,count=1,repair=150")
		kernel := func() string { return sp.inner.(*rotorProc).sys.KernelName() }

		if got := kernel(); got != tc.tier {
			t.Fatalf("k=%d pristine epoch: kernel %q, want %s", tc.k, got, tc.tier)
		}
		sp.RunTo(60)
		if got := kernel(); got != "generic" {
			t.Fatalf("k=%d cut epoch: kernel %q, want generic", tc.k, got)
		}
		if sp.next != 1 {
			t.Fatalf("k=%d after RunTo(60): %d events applied, want 1", tc.k, sp.next)
		}
		sp.RunTo(200)
		if got := kernel(); got != tc.tier {
			t.Fatalf("k=%d repaired epoch: kernel %q, want %s (repair must re-specialize)", tc.k, got, tc.tier)
		}
		if sp.next != 2 {
			t.Fatalf("k=%d after RunTo(200): %d events applied, want 2", tc.k, sp.next)
		}

		// Reset rewinds to the pristine epoch; the kernel must come back
		// specialized there too.
		sp.Reset()
		if got := kernel(); got != tc.tier {
			t.Fatalf("k=%d after Reset: kernel %q, want %s", tc.k, got, tc.tier)
		}
	}
}
