package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/xrand"
)

// TestParseMissionRoundTrip: canonical forms, normalization, and rejected
// specs of the mission grammar.
func TestParseMissionRoundTrip(t *testing.T) {
	good := map[string]string{
		"none":                          "none",
		"  NONE ":                       "none",
		"explore":                       "explore",
		"Return":                        "return",
		"QUIESCE":                       "quiesce:window=4096",
		"quiesce:window=128":            "quiesce:window=128",
		"patrol:horizon=4096":           "patrol:horizon=4096",
		"Patrol:warmup=16,horizon=64":   "patrol:horizon=64,warmup=16",
		"patrol:horizon=64,warmup=0":    "patrol:horizon=64,warmup=0",
		"balance:horizon=20000":         "balance:horizon=20000",
		"balance:horizon=100, warmup=5": "balance:horizon=100,warmup=5",
	}
	for in, want := range good {
		got, err := ParseMission(in)
		if err != nil {
			t.Errorf("ParseMission(%q): %v", in, err)
			continue
		}
		if string(got) != want {
			t.Errorf("ParseMission(%q) = %q, want %q", in, got, want)
		}
		// The canonical form is a parse fixed point.
		again, err := ParseMission(string(got))
		if err != nil || again != got {
			t.Errorf("canonical %q is not a fixed point: %q, %v", got, again, err)
		}
	}
	bad := []string{
		"", "unknown", "none:x=1", "explore:fast=1", "return:x",
		"quiesce:window=0", "quiesce:window=-5", "quiesce:w=4",
		"quiesce:window=999999999999", "patrol", "patrol:warmup=5",
		"patrol:horizon=0", "patrol:horizon=10,warmup=10",
		"patrol:horizon=10,warmup=-1", "balance:horizon=x",
		"balance:horizon=5,horizon=5", "patrol:horizon=5,q=1",
	}
	for _, in := range bad {
		if got, err := ParseMission(in); err == nil {
			t.Errorf("ParseMission(%q) = %q, want error", in, got)
		}
	}

	// The unknown-family error names the registered families.
	_, err := ParseMission("bogus:x=1")
	if err == nil || !strings.Contains(err.Error(), "unknown mission") {
		t.Fatalf("unknown family error = %v", err)
	}
	for _, name := range []string{"explore", "return", "quiesce", "patrol", "balance", "none"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-mission error does not list %q: %v", name, err)
		}
	}
}

// FuzzParseMission: whatever the input, a successful parse returns a
// canonical form that re-parses to itself with an identical compiled plan,
// and parsing never panics.
func FuzzParseMission(f *testing.F) {
	for _, s := range []string{
		"none", "explore", "return", "quiesce", "quiesce:window=128",
		"patrol:horizon=4096", "patrol:horizon=64,warmup=0",
		"balance:horizon=20000,warmup=10000", "  Patrol : horizon = 8 ",
		"quiesce:window=0", "patrol:warmup=5", "none:x", ":::",
		"balance:horizon=99999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		inst, err := parseMission(s)
		if err != nil {
			return
		}
		again, err := parseMission(inst.canonical)
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

// mixedMissionSpec sweeps every built-in mission family next to "none" on a
// small grid, composed with a hold schedule (the only schedule kind missions
// accept).
func mixedMissionSpec(process string) SweepSpec {
	missions := []Mission{"none", "explore", "patrol:horizon=512", "balance:horizon=512,warmup=0"}
	if process == ProcRotor {
		// Configuration recurrence needs determinism (return) or hashing
		// (quiesce) — rotor capabilities.
		missions = append(missions, "return", "quiesce:window=256")
	}
	spec := SweepSpec{
		Topologies: []Topo{"ring", "grid:6x5"},
		Sizes:      []int{24},
		Agents:     []int{3},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Process:    process,
		Missions:   missions,
		Replicas:   2,
		Seed:       314159,
	}
	if process == ProcRotor {
		spec.Schedules = []Schedule{"none", "delay:p=0.25,until=64"}
	}
	return spec
}

// TestMissionSweepDeterministic is the acceptance contract for the mission
// subsystem: mixed mission sweeps (composed with hold schedules) are
// byte-identical at 1 vs 8 workers, for both processes.
func TestMissionSweepDeterministic(t *testing.T) {
	for _, proc := range []string{ProcRotor, ProcWalk} {
		t.Run(proc, func(t *testing.T) {
			spec := mixedMissionSpec(proc)
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
					t.Errorf("job cell=%d (mission %q, schedule %q) replica=%d failed: %s",
						r.Index, r.Cell.Mission, r.Cell.Schedule, r.Replica, r.Err)
				}
			}
		})
	}
}

// TestMissionSharesInitialConfiguration: job seeds do not depend on the
// mission, so the same randomized cell under "none" and under a mission
// starts from the same initial configuration.
func TestMissionSharesInitialConfiguration(t *testing.T) {
	rows, err := New(Workers(4)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{48},
		Agents:     []int{4},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Missions:   []Mission{"none", "explore"},
		Replicas:   2,
		Seed:       99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for rep := 0; rep < 2; rep++ {
		none, mis := rows[rep], rows[2+rep]
		if none.Seed != mis.Seed {
			t.Errorf("replica %d: job seed depends on the mission (%d vs %d)", rep, none.Seed, mis.Seed)
		}
		// Explore of the rotor completes exactly at cover time of the arcs;
		// it can never beat the node cover time.
		if mis.Err != "" || mis.MissionRounds < int64(none.Value) {
			t.Errorf("replica %d: explore finished at %d, before node cover %v (err %q)",
				rep, mis.MissionRounds, none.Value, mis.Err)
		}
	}
}

// TestPatrolStalenessBound is the registry-level acceptance claim: on
// Ring(n) with k equally spaced agents the rotor-router's measured worst
// idle interval stays within a small constant of the paper's Θ(n/k) service
// guarantee, while the random walk's is strictly larger.
func TestPatrolStalenessBound(t *testing.T) {
	const n, k = 64, 8
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{n},
		Agents:     []int{k},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrZero},
		Missions:   []Mission{"patrol:horizon=2048"},
		Seed:       7,
	}
	rows, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rotor := rows[0]
	if rotor.Err != "" {
		t.Fatal(rotor.Err)
	}
	if bound := float64(3 * n / k); rotor.StalenessMax > bound {
		t.Errorf("rotor patrol staleness %v exceeds 3·n/k = %v", rotor.StalenessMax, bound)
	}
	if rotor.StalenessMean <= 0 || rotor.StalenessMean > rotor.StalenessMax {
		t.Errorf("rotor staleness mean %v outside (0, max=%v]", rotor.StalenessMean, rotor.StalenessMax)
	}
	if rotor.Value != rotor.StalenessMax {
		t.Errorf("patrol Value = %v, want StalenessMax %v", rotor.Value, rotor.StalenessMax)
	}

	walk := spec
	walk.Process = ProcWalk
	rows, err = New(Workers(2)).Run(walk)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Err != "" {
		t.Fatal(rows[0].Err)
	}
	if rows[0].StalenessMax <= rotor.StalenessMax {
		t.Errorf("walk patrol staleness %v not above rotor's %v",
			rows[0].StalenessMax, rotor.StalenessMax)
	}
}

// TestExploreReturnOnRing: closed-form checks of the predicate missions on
// the all-clockwise single-agent ring, where the rotor-router marches around
// once — explore and return both fire at exactly round n.
func TestExploreReturnOnRing(t *testing.T) {
	const n = 32
	for _, mission := range []Mission{"explore", "return"} {
		rows, err := New(Workers(1)).Run(SweepSpec{
			Topologies: []Topo{"ring"},
			Sizes:      []int{n},
			Agents:     []int{1},
			Placements: []Placement{PlaceSingle},
			Pointers:   []Pointer{PtrZero},
			Missions:   []Mission{mission},
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Err != "" {
			t.Fatalf("%s: %s", mission, r.Err)
		}
		if r.MissionTimeout {
			t.Fatalf("%s: unexpected timeout at %d rounds", mission, r.MissionRounds)
		}
		if r.MissionRounds != n {
			t.Errorf("%s on the all-clockwise ring finished at round %d, want %d",
				mission, r.MissionRounds, n)
		}
		if r.Rounds != r.MissionRounds || r.Value != float64(r.MissionRounds) {
			t.Errorf("%s: rounds=%d value=%v, want both equal to mission_rounds=%d",
				mission, r.Rounds, r.Value, r.MissionRounds)
		}
	}
}

// TestQuiesceMission: the rotor locks into a limit cycle and quiesce reports
// its entry with a positive period; the walk lacks configuration hashing and
// fails as a per-job capability row.
func TestQuiesceMission(t *testing.T) {
	rows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{24},
		Agents:     []int{3},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrZero},
		Missions:   []Mission{"quiesce:window=256"},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.MissionTimeout || r.Period <= 0 {
		t.Errorf("rotor quiesce: timeout=%v period=%d, want a limit-cycle entry", r.MissionTimeout, r.Period)
	}
	// The recurrence distance cannot exceed the detection window.
	if r.Period > 256 {
		t.Errorf("quiesce period %d exceeds its window", r.Period)
	}

	rows, err = New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{24},
		Agents:     []int{3},
		Process:    ProcWalk,
		Missions:   []Mission{"quiesce"},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows[0].Err, "does not run mission") ||
		!strings.Contains(rows[0].Err, "walk") {
		t.Errorf("walk+quiesce row error = %q, want capability failure", rows[0].Err)
	}
}

// TestMissionTimeoutRow: a mission that cannot fire within an explicit
// MaxRounds degrades into a mission_timeout row — an outcome, not an error.
func TestMissionTimeoutRow(t *testing.T) {
	rows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{32},
		Agents:     []int{1},
		Placements: []Placement{PlaceSingle},
		Pointers:   []Pointer{PtrZero},
		Missions:   []Mission{"explore"},
		MaxRounds:  8, // far below the n rounds explore needs
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatalf("timeout must not be an error row: %s", r.Err)
	}
	if !r.MissionTimeout {
		t.Fatal("mission_timeout not set")
	}
	if r.MissionRounds != 8 || r.Rounds != 8 {
		t.Errorf("timeout row rounds = %d/%d, want the explicit cap 8", r.MissionRounds, r.Rounds)
	}
	if r.Value != 0 {
		t.Errorf("timeout row carries a value %v", r.Value)
	}
}

// TestMissionSpecValidation: combinations the mission runner would silently
// ignore fail the sweep before any worker starts.
func TestMissionSpecValidation(t *testing.T) {
	base := SweepSpec{Sizes: []int{16}, Agents: []int{2}, Missions: []Mission{"explore"}}

	bad := base
	bad.Missions = []Mission{"bogus"}
	if _, err := New(Workers(1)).Run(bad); err == nil {
		t.Error("unknown mission family accepted")
	}

	ret := base
	ret.Metric = MetricReturn
	if _, err := New(Workers(1)).Run(ret); err == nil {
		t.Error("mission accepted a non-cover metric")
	}

	probed := base
	probed.Probes = []ProbeSpec{{Name: "coverage", Stride: 8}}
	if _, err := New(Workers(1)).Run(probed); err == nil {
		t.Error("mission accepted probes")
	}

	faulted := base
	faulted.Schedules = []Schedule{"edgefail:t=64"}
	if _, err := New(Workers(1)).Run(faulted); err == nil {
		t.Error("mission accepted a topology-changing schedule")
	}

	churned := base
	churned.Schedules = []Schedule{"churn:join=2@8"}
	if _, err := New(Workers(1)).Run(churned); err == nil {
		t.Error("mission accepted a population-changing schedule")
	}

	held := base
	held.Schedules = []Schedule{"delay:p=0.25", "reset:t=32"}
	if _, err := New(Workers(1)).Run(held); err != nil {
		t.Errorf("mission rejected a hold/reset schedule: %v", err)
	}
}

// TestMissionBudgetRule: predicate missions multiply the automatic budget by
// their plan factor, service missions floor it at their horizon, and an
// explicit MaxRounds is taken literally.
func TestMissionBudgetRule(t *testing.T) {
	g := mustBuildGraph(t, "ring", 32)
	auto := AutoBudget(g, ProcRotor, MetricCover)
	spec := SweepSpec{Process: ProcRotor, Metric: MetricCover}

	explore, err := parseMission("explore")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := budget(&spec, Cell{mis: explore}, g), auto*explore.plan.BudgetFactor; got != want {
		t.Errorf("explore budget = %d, want %d", got, want)
	}
	if explore.plan.BudgetFactor < 2 {
		t.Errorf("explore budget factor = %d, want >= 2", explore.plan.BudgetFactor)
	}

	huge, err := parseMission("patrol:horizon=99999999999")
	if err != nil {
		t.Fatal(err)
	}
	if got := budget(&spec, Cell{mis: huge}, g); got != 99999999999 {
		t.Errorf("patrol budget = %d, want the horizon floor", got)
	}

	spec.MaxRounds = 777
	if got := budget(&spec, Cell{mis: explore}, g); got != 777 {
		t.Errorf("explicit MaxRounds not taken literally: %d", got)
	}
}

// TestMissionObserverDetached: mission state lives in the job, not in the
// process — missions only read the flow view — so a cached prototype
// reused by the following replicas reproduces the first replica's row.
func TestMissionObserverDetached(t *testing.T) {
	rows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{24},
		Agents:     []int{2},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrZero},
		Missions:   []Mission{"explore"},
		Replicas:   3,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic cell: every replica must report the identical result
	// (replica 2+ run on the replica-1 prototype via Reset).
	for _, r := range rows[1:] {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
		if r.MissionRounds != rows[0].MissionRounds || r.Value != rows[0].Value {
			t.Errorf("replica %d drifted from replica 0: rounds %d vs %d",
				r.Replica, r.MissionRounds, rows[0].MissionRounds)
		}
	}
}

// TestMissionKeepsRingKernel: missions read the flow view instead of
// observing moves, so a dense-ring patrol job stays on the ring kernel
// mid-mission — plain, and under a delay schedule, whose held rounds run
// the held ring kernel.
func TestMissionKeepsRingKernel(t *testing.T) {
	const n, k = 128, 32 // k >= n/4: KernelAuto selects the ring kernel
	g := mustBuildGraph(t, "ring", n)
	mi, err := parseMission("patrol:horizon=256,warmup=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, schedule := range []string{SchedNone, "delay:p=0.25"} {
		rng := xrand.New(17)
		env := &JobEnv{
			Graph:     g,
			Cell:      Cell{Topology: "ring", N: n, K: k, Placement: PlaceRandom, Pointer: PtrRandom},
			Positions: core.RandomPositions(n, k, rng),
			Seed:      17,
			RNG:       rng,
		}
		rp, err := newRotorProc(env)
		if err != nil {
			t.Fatal(err)
		}
		sys := rp.(*rotorProc).sys
		p := rp
		if schedule != SchedNone {
			inst, err := parseSchedule(schedule)
			if err != nil {
				t.Fatal(err)
			}
			if p, err = newScheduledProc(rp, ProcRotor, inst, env); err != nil {
				t.Fatal(err)
			}
		}
		st, err := mi.def.New(mi.plan, ProcRotor, env, rp)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done() {
			p.Step()
			st.Observe(p.Round())
			if got := sys.KernelName(); got != "ring" {
				t.Fatalf("%s: round %d of the patrol mission runs kernel %q, want ring", schedule, p.Round(), got)
			}
		}
		var row Row
		st.Finish(&row)
		if row.StalenessMax <= 0 {
			t.Errorf("%s: patrol staleness %v, want a measured idle time", schedule, row.StalenessMax)
		}
	}
}
