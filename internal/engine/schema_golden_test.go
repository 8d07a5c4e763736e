package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file pins the serialized row formats:
//
//   - The JSONL row schema (field set and ordering) for scheduled and
//     unscheduled sweeps, against committed golden files — so a field
//     rename, reorder or omitempty change is a conscious decision, not an
//     accident.
//   - Seed compatibility: sweeps with Schedules nil produce byte-identical
//     JSONL and CSV to the output committed before the schedule subsystem
//     existed (PR 4). Schedules ride on new fields and a new grid axis;
//     they may not perturb a single byte of unscheduled output.
//
// Regenerate the schema goldens (never the seedcompat ones — those are the
// compatibility contract) with: go test ./internal/engine -run
// TestJSONLRowSchema -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the schema golden files")

// seedcompatSpecs are the exact sweeps whose output was committed at PR 4.
// Do not edit: the goldens are the contract.
func seedcompatSpecs() map[string]SweepSpec {
	return map[string]SweepSpec{
		"seedcompat_rotor": {
			Topologies: []Topo{"ring", "path:24"},
			Sizes:      []int{16, 24},
			Agents:     []int{1, 3},
			Placements: []Placement{PlaceSingle, PlaceEqual},
			Pointers:   []Pointer{PtrZero, PtrToward},
			Process:    "rotor",
			Metric:     "cover",
			Probes:     []ProbeSpec{{Name: "coverage", Stride: 64}},
			Replicas:   2,
			Seed:       42,
		},
		"seedcompat_walk": {
			Topologies: []Topo{"ring"},
			Sizes:      []int{32},
			Agents:     []int{4},
			Placements: []Placement{PlaceRandom},
			Process:    "walk",
			Metric:     "cover",
			Replicas:   3,
			Seed:       7,
		},
		"seedcompat_return": {
			Topologies: []Topo{"ring"},
			Sizes:      []int{16},
			Agents:     []int{2},
			Placements: []Placement{PlaceSingle},
			Pointers:   []Pointer{PtrToward},
			Process:    "rotor",
			Metric:     "return",
			Replicas:   1,
			Seed:       5,
		},
	}
}

// TestSeedCompatPR4 proves Schedules: nil sweeps stay byte-identical to the
// output the engine produced before the schedule subsystem landed.
func TestSeedCompatPR4(t *testing.T) {
	for name, spec := range seedcompatSpecs() {
		t.Run(name, func(t *testing.T) {
			var jsonl, csv bytes.Buffer
			if _, err := New(Workers(3)).Run(spec, NewJSONLSink(&jsonl), NewCSVSink(&csv)); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{"jsonl": jsonl.Bytes(), "csv": csv.Bytes()} {
				want, err := os.ReadFile(filepath.Join("testdata", name+"."+ext))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s.%s output drifted from the PR 4 golden (%d vs %d bytes)",
						name, ext, len(got), len(want))
				}
			}
		})
	}
}

// seedcompatPR8Specs are the exact sweeps whose output was committed at
// PR 8, before the mission subsystem landed. Do not edit the specs: the
// goldens are the contract. The seedcompat_pr8_sched goldens were
// regenerated once, under the sanctioned rowcache/v3 hold-draw change
// (helddraw.go): its delay rows changed bytes, its none/reset rows did not,
// and the restab and walk goldens are untouched.
func seedcompatPR8Specs() map[string]SweepSpec {
	return map[string]SweepSpec{
		"seedcompat_pr8_sched": {
			Topologies: []Topo{"ring", "grid:6x6"},
			Sizes:      []int{16},
			Agents:     []int{2, 4},
			Placements: []Placement{PlaceSingle, PlaceEqual},
			Pointers:   []Pointer{PtrZero},
			Process:    "rotor",
			Metric:     "cover",
			Schedules:  []Schedule{"none", "delay:p=0.25", "reset:t=64"},
			Replicas:   2,
			Seed:       11,
		},
		"seedcompat_pr8_restab": {
			Topologies: []Topo{"ring"},
			Sizes:      []int{24},
			Agents:     []int{3},
			Placements: []Placement{PlaceEqual},
			Pointers:   []Pointer{PtrZero},
			Process:    "rotor",
			Metric:     "restab_time",
			Schedules:  []Schedule{"edgefail:t=256"},
			Replicas:   1,
			Seed:       9,
		},
		"seedcompat_pr8_walk": {
			Topologies: []Topo{"ring"},
			Sizes:      []int{24},
			Agents:     []int{4},
			Placements: []Placement{PlaceRandom},
			Process:    "walk",
			Metric:     "cover",
			Schedules:  []Schedule{"none", "delay:p=0.5"},
			Replicas:   2,
			Seed:       3,
		},
	}
}

// TestSeedCompatPR8 proves Missions: nil sweeps — scheduled ones included —
// stay byte-identical to the output the engine produced before the mission
// subsystem landed.
func TestSeedCompatPR8(t *testing.T) {
	for name, spec := range seedcompatPR8Specs() {
		t.Run(name, func(t *testing.T) {
			var jsonl, csv bytes.Buffer
			if _, err := New(Workers(3)).Run(spec, NewJSONLSink(&jsonl), NewCSVSink(&csv)); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{"jsonl": jsonl.Bytes(), "csv": csv.Bytes()} {
				path := filepath.Join("testdata", name+"."+ext)
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("rewrote %s", path)
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s.%s output drifted from the PR 8 golden (%d vs %d bytes)",
						name, ext, len(got), len(want))
				}
			}
		})
	}
}

// rowFieldOrder extracts the top-level key sequence of the first JSONL row.
func rowFieldOrder(t *testing.T, jsonl []byte) []string {
	t.Helper()
	line, _, _ := bytes.Cut(jsonl, []byte("\n"))
	dec := json.NewDecoder(bytes.NewReader(line))
	var keys []string
	depth := 0
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{':
				depth++
				expectKey = depth == 1
			case '}':
				depth--
				expectKey = false
			case '[', ']':
				expectKey = false
			}
		case string:
			if depth == 1 && expectKey {
				keys = append(keys, v)
				// Skip the value (may be an object/array of its own).
				var raw json.RawMessage
				if err := dec.Decode(&raw); err != nil {
					t.Fatalf("decode value of %q: %v", v, err)
				}
			}
		}
	}
	return keys
}

// TestJSONLRowSchema pins the JSONL field set and ordering for scheduled
// and unscheduled rows against the committed schema goldens.
func TestJSONLRowSchema(t *testing.T) {
	base := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{16},
		Agents:     []int{2},
		Placements: []Placement{PlaceSingle},
		Pointers:   []Pointer{PtrToward},
		Probes:     []ProbeSpec{{Name: "coverage", Stride: 8}},
		Seed:       1,
	}
	cases := map[string]SweepSpec{"jsonl_schema_unscheduled": base}
	sched := base
	sched.Schedules = []Schedule{"reset:t=4"}
	cases["jsonl_schema_scheduled"] = sched
	// The mission case exercises every mission row field (mission_rounds via
	// any mission, staleness via patrol); missions reject probes, so the
	// schema difference to the unscheduled golden is mission fields in,
	// series out.
	mission := base
	mission.Probes = nil
	mission.Missions = []Mission{"patrol:horizon=64,warmup=8"}
	cases["jsonl_schema_mission"] = mission

	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			var jsonl bytes.Buffer
			rows, err := New(Workers(1)).Run(spec, NewJSONLSink(&jsonl))
			if err != nil {
				t.Fatal(err)
			}
			if rows[0].Err != "" {
				t.Fatal(rows[0].Err)
			}
			got := strings.Join(rowFieldOrder(t, jsonl.Bytes()), "\n") + "\n"
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create)", err)
			}
			if got != string(want) {
				t.Errorf("JSONL row schema drifted.\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestScheduledRowsAddOnlySchemaFields: the scheduled schema is the
// unscheduled schema plus the schedule column — schedules never remove or
// reorder existing fields.
func TestScheduledRowsAddOnlySchemaFields(t *testing.T) {
	read := func(name string) []string {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatalf("%v (run TestJSONLRowSchema with -update-golden first)", err)
		}
		return strings.Fields(string(b))
	}
	plain, sched := read("jsonl_schema_unscheduled"), read("jsonl_schema_scheduled")
	i := 0
	for _, f := range sched {
		if i < len(plain) && plain[i] == f {
			i++
		} else if f != "schedule" {
			t.Fatalf("scheduled schema inserts unexpected field %q", f)
		}
	}
	if i != len(plain) {
		t.Fatalf("scheduled schema drops unscheduled fields: %v vs %v", sched, plain)
	}
}

// TestMissionRowsAddOnlySchemaFields: the mission schema is the unscheduled
// schema minus the probe series (missions reject probes) plus mission
// columns — missions never remove or reorder other fields.
func TestMissionRowsAddOnlySchemaFields(t *testing.T) {
	read := func(name string) []string {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatalf("%v (run TestJSONLRowSchema with -update-golden first)", err)
		}
		return strings.Fields(string(b))
	}
	missionFields := map[string]bool{
		"mission": true, "mission_rounds": true, "mission_timeout": true,
		"staleness_max": true, "staleness_mean": true, "fairness": true,
	}
	plain, mission := read("jsonl_schema_unscheduled"), read("jsonl_schema_mission")
	i := 0
	for _, f := range mission {
		for i < len(plain) && plain[i] == "series" {
			i++ // the mission case carries no probes
		}
		if i < len(plain) && plain[i] == f {
			i++
		} else if !missionFields[f] {
			t.Fatalf("mission schema inserts unexpected field %q", f)
		}
	}
	for i < len(plain) && plain[i] == "series" {
		i++
	}
	if i != len(plain) {
		t.Fatalf("mission schema drops unscheduled fields: %v vs %v", mission, plain)
	}
}

// TestCSVHeaderPinned: the CSV sink's fixed column set is part of the
// compatibility contract (schedules ride in JSONL only).
func TestCSVHeaderPinned(t *testing.T) {
	want := "cell,topology,n,k,placement,pointer,process,metric,replica,seed,value,rounds,period,min_visits,max_visits,err"
	if got := strings.Join(csvHeader, ","); got != want {
		t.Errorf("CSV header changed:\ngot  %s\nwant %s", got, want)
	}
}

// seedcompatMissionSpecs are the mission sweeps whose output was committed
// before mission observation moved onto the per-round flow view. The rotor
// sweep covers every mission family over a dense ring (k >= n/4, which runs
// on the ring kernel, and on the held ring kernel under delay), a sparse
// ring (the sparse ring round, and the generic loop's held rounds under
// delay), a grid and a torus, plain and composed with delay and reset
// schedules; the walk sweep covers the flow-reading families in both walk
// modes (per-agent for k < 2n, counts for k >= 2n). An explicit MaxRounds
// keeps predicate missions that never fire (return from a transient start)
// to short mission_timeout rows. Rows are concatenated in slice order. Do
// not edit the specs and never regenerate the golden: it is the contract.
func seedcompatMissionSpecs() []SweepSpec {
	return []SweepSpec{
		{
			Topologies: []Topo{"ring", "grid:6x6", "torus:6x6"},
			Sizes:      []int{64},
			Agents:     []int{3, 16},
			Placements: []Placement{PlaceRandom},
			Pointers:   []Pointer{PtrRandom},
			Process:    "rotor",
			Metric:     "cover",
			Schedules:  []Schedule{"none", "delay:p=0.25,until=96", "reset:t=48"},
			Missions: []Mission{"explore", "return", "quiesce:window=256",
				"patrol:horizon=512", "balance:horizon=512,warmup=0"},
			MaxRounds: 4096,
			Replicas:  2,
			Seed:      1313,
		},
		{
			Topologies: []Topo{"ring", "torus:6x6"},
			Sizes:      []int{64},
			Agents:     []int{4, 160},
			Placements: []Placement{PlaceRandom},
			Process:    "walk",
			Metric:     "cover",
			Missions:   []Mission{"explore", "patrol:horizon=512", "balance:horizon=512,warmup=0"},
			MaxRounds:  4096,
			Replicas:   2,
			Seed:       1314,
		},
	}
}

// TestSeedCompatMissions proves mission rows stay byte-identical to the
// output committed before missions read the flow view, on every kernel tier
// a mission cell selects.
func TestSeedCompatMissions(t *testing.T) {
	var jsonl bytes.Buffer
	for _, spec := range seedcompatMissionSpecs() {
		if _, err := New(Workers(3)).Run(spec, NewJSONLSink(&jsonl)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "seedcompat_missions.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl.Bytes(), want) {
		t.Errorf("mission output drifted from the golden (%d vs %d bytes)", jsonl.Len(), len(want))
	}
}
