package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite the row-digest golden file")

// digestFixture pins (spec, seed) -> canonical row bytes across releases:
// every job's cache key and the SHA-256 of its RowBytes. A mismatch means
// seeds, simulation order or the row encoding changed — which silently
// invalidates every deployed row cache and breaks service/library byte
// identity for old spools, so it must be an explicit, versioned decision
// (bump the rowcache/v4 key prefix), never an accident. The v3 bump was
// such a decision: the hold-draw stream became counter-based (helddraw.go),
// changing delay-schedule rows; this fixture was regenerated with it. The
// v4 bump changed only the keys: caches held the error rows that
// unscheduled restab_time jobs used to write.
type digestFixture struct {
	V     int                `json:"v"`
	Specs []specDigestRecord `json:"specs"`
}

type specDigestRecord struct {
	Name string          `json:"name"`
	Spec json.RawMessage `json:"spec"`
	Jobs []jobDigest     `json:"jobs"`
}

type jobDigest struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
}

// digestSpecs are the pinned configurations: small, fast, and jointly
// covering both processes, all three kernel tiers' dispatch, seeded and
// unseeded topologies, random placement, schedules and probes.
func digestSpecs() []struct {
	name string
	spec SweepSpec
} {
	return []struct {
		name string
		spec SweepSpec
	}{
		{"rotor-mixed", SweepSpec{
			Topologies: []Topo{"ring", "grid:4x4", "rr:3"},
			Sizes:      []int{16},
			Agents:     []int{2},
			Placements: []Placement{PlaceSingle, PlaceRandom},
			Probes:     []ProbeSpec{{Name: "coverage", Stride: 64}},
			Schedules:  []Schedule{"none", "delay:p=0.5"},
			Replicas:   2,
			Seed:       11,
		}},
		{"walk-return", SweepSpec{
			Topologies: []Topo{"ring", "lollipop:6x10"},
			Sizes:      []int{16},
			Agents:     []int{2},
			Process:    ProcWalk,
			Metric:     MetricReturn,
			Replicas:   2,
			Seed:       11,
		}},
	}
}

func TestRowDigestsSeedCompat(t *testing.T) {
	path := filepath.Join("testdata", "rowdigest_v1.json")
	var fixture digestFixture
	fixture.V = 1
	for _, s := range digestSpecs() {
		wire, err := EncodeWireSpec(s.spec)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.name, err)
		}
		exp, err := Expand(s.spec)
		if err != nil {
			t.Fatalf("%s: expand: %v", s.name, err)
		}
		rec := specDigestRecord{Name: s.name, Spec: wire}
		runner := exp.NewRunner()
		for job := 0; job < exp.NumJobs(); job++ {
			b, err := RowBytes(runner.Run(job))
			if err != nil {
				t.Fatalf("%s: job %d: %v", s.name, job, err)
			}
			sum := sha256.Sum256(b)
			rec.Jobs = append(rec.Jobs, jobDigest{
				Key:    exp.JobKey(job),
				Digest: hex.EncodeToString(sum[:]),
			})
		}
		fixture.Specs = append(fixture.Specs, rec)
	}

	if *updateDigests {
		out, err := json.MarshalIndent(fixture, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	goldenBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var golden digestFixture
	if err := json.Unmarshal(goldenBytes, &golden); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if golden.V != fixture.V {
		t.Fatalf("golden fixture v=%d, want %d", golden.V, fixture.V)
	}
	if len(golden.Specs) != len(fixture.Specs) {
		t.Fatalf("golden has %d specs, want %d (run with -update after adding specs)", len(golden.Specs), len(fixture.Specs))
	}
	for i, want := range golden.Specs {
		got := fixture.Specs[i]
		if got.Name != want.Name {
			t.Errorf("spec %d: name %q, golden %q", i, got.Name, want.Name)
			continue
		}
		// MarshalIndent reflows the embedded spec; compare compacted.
		var wantSpec bytes.Buffer
		if err := json.Compact(&wantSpec, want.Spec); err != nil {
			t.Fatalf("%s: golden spec: %v", want.Name, err)
		}
		if string(got.Spec) != wantSpec.String() {
			t.Errorf("%s: canonical wire spec drifted:\n got %s\nwant %s", got.Name, got.Spec, wantSpec.String())
		}
		if len(got.Jobs) != len(want.Jobs) {
			t.Errorf("%s: %d jobs, golden %d", got.Name, len(got.Jobs), len(want.Jobs))
			continue
		}
		for j := range want.Jobs {
			if got.Jobs[j].Key != want.Jobs[j].Key {
				t.Errorf("%s job %d: cache key drifted\n got %s\nwant %s", got.Name, j, got.Jobs[j].Key, want.Jobs[j].Key)
			}
			if got.Jobs[j].Digest != want.Jobs[j].Digest {
				t.Errorf("%s job %d: row bytes drifted (digest %s, golden %s)", got.Name, j, got.Jobs[j].Digest, want.Jobs[j].Digest)
			}
		}
	}
}
