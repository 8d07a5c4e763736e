package engine

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rotorring/internal/xrand"
)

// expandTestSpec is a small heterogeneous grid exercising every row shape:
// mixed topologies (one seeded), a schedule, probes and replicas.
func expandTestSpec() SweepSpec {
	return SweepSpec{
		Topologies: []Topo{"ring", "grid:8x8", "rr:3"},
		Sizes:      []int{32},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceSingle, PlaceRandom},
		Replicas:   2,
		Seed:       7,
	}
}

// TestExpandMatchesRun proves the exported job model is the engine: rows
// produced job-by-job through Expand/JobRunner equal the rows Engine.Run
// streams, independent of how the job range is partitioned across runners.
func TestExpandMatchesRun(t *testing.T) {
	spec := expandTestSpec()
	want, err := New(Workers(4)).Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	exp, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if exp.NumJobs() != len(want) {
		t.Fatalf("NumJobs = %d, Run produced %d rows", exp.NumJobs(), len(want))
	}
	// Partition the job range across three runners round-robin — the least
	// cache-friendly sharding — and still expect identical rows.
	runners := []*JobRunner{exp.NewRunner(), exp.NewRunner(), exp.NewRunner()}
	for job := 0; job < exp.NumJobs(); job++ {
		got := runners[job%len(runners)].Run(job)
		if !reflect.DeepEqual(got, want[job]) {
			t.Errorf("job %d: runner row differs from Run row:\n got %+v\nwant %+v", job, got, want[job])
		}
		if got.Seed != exp.JobSeed(job) {
			t.Errorf("job %d: JobSeed = %d, row carries %d", job, exp.JobSeed(job), got.Seed)
		}
	}
}

// TestSharedRunnerConcurrent: one JobRunner is safe for concurrent use.
// Four goroutines share it and run every job of each sweep in a shuffled
// order, and each row's bytes must equal Engine.Run's. The sweeps mix
// deterministic and random placements and pointers over replicated plain
// and delayed cells on a ring and a torus, and add a replicated
// return-metric sweep and a walk sweep. Under -race this also shows that
// jobs share no mutable state beyond the graph cache.
func TestSharedRunnerConcurrent(t *testing.T) {
	specs := []SweepSpec{
		{
			Topologies: []Topo{"ring", "torus:6x4"},
			Sizes:      []int{24},
			Agents:     []int{2, 6},
			Placements: []Placement{PlaceEqual, PlaceRandom},
			Pointers:   []Pointer{PtrNegative, PtrRandom},
			Schedules:  []Schedule{SchedNone, "delay:p=0.25,until=32"},
			Replicas:   3,
			Seed:       7,
		},
		{
			Topologies: []Topo{"ring", "torus:6x4"},
			Sizes:      []int{24, 32},
			Agents:     []int{2, 3},
			Placements: []Placement{PlaceEqual},
			Pointers:   []Pointer{PtrNegative},
			Metric:     MetricReturn,
			Replicas:   2,
			Seed:       7,
		},
		{
			Topologies: []Topo{"ring", "torus:6x4"},
			Sizes:      []int{24},
			Agents:     []int{2, 4},
			Placements: []Placement{PlaceEqual, PlaceRandom},
			Process:    ProcWalk,
			Replicas:   3,
			Seed:       7,
		},
	}
	for i, spec := range specs {
		want, err := New(Workers(1)).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		runner := exp.NewRunner()
		got := make([]Row, exp.NumJobs())
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for job := range jobs {
					got[job] = runner.Run(job)
				}
			}()
		}
		for _, job := range xrand.New(uint64(i)).Perm(exp.NumJobs()) {
			jobs <- job
		}
		close(jobs)
		wg.Wait()

		for job, row := range want {
			if row.Err != "" {
				t.Fatalf("spec %d job %d: %s", i, job, row.Err)
			}
			wb, err := RowBytes(row)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := RowBytes(got[job])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("spec %d job %d: shared runner row\n%s differs from Engine.Run row\n%s", i, job, gb, wb)
			}
		}
	}
}

// TestSpecNumJobs: NumJobs counts exactly the jobs Expand builds (a
// self-sized topology takes one size, a pointer-less process collapses the
// pointer axis) and saturates on a grid far too large to build.
func TestSpecNumJobs(t *testing.T) {
	for _, spec := range []SweepSpec{
		expandTestSpec(),
		{Topologies: []Topo{"ring", "path"}, Sizes: []int{16, 32}, Agents: []int{2, 3}, Pointers: []Pointer{PtrZero, PtrRandom}},
		{Sizes: []int{16}, Agents: []int{2, 4}, Process: ProcWalk, Pointers: []Pointer{PtrZero, PtrRandom}, Replicas: 3},
		{Sizes: []int{16}, Agents: []int{2}, Schedules: []Schedule{"none", "delay:p=0.5"}, Missions: []Mission{"none", "explore"}},
	} {
		got, err := spec.NumJobs()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != exp.NumJobs() {
			t.Errorf("%+v: NumJobs %d, Expand built %d jobs", spec, got, exp.NumJobs())
		}
	}
	huge := SweepSpec{Replicas: 1 << 16}
	for i := 0; i < 1<<16; i++ {
		huge.Sizes = append(huge.Sizes, 8)
		huge.Agents = append(huge.Agents, 1)
		huge.Placements = append(huge.Placements, PlaceSingle)
	}
	if got, err := huge.NumJobs(); err != nil || got != math.MaxInt {
		t.Errorf("2^64 jobs: NumJobs = %d, %v; want math.MaxInt", got, err)
	}
}

// TestJobKeyIdentity pins the two halves of the content-address contract:
// jobs that must share cache entries (same configuration inside an enlarged
// grid) have equal keys, and every distinguishing input shows up in the key.
func TestJobKeyIdentity(t *testing.T) {
	small, err := Expand(SweepSpec{
		Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Expand(SweepSpec{
		Topologies: []Topo{"grid:8x8", "ring"}, Sizes: []int{32, 64}, Agents: []int{2, 4}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Locate ring/32/k=2 in the enlarged grid and demand an identical key
	// despite the different grid shape and cell index.
	found := false
	for job := 0; job < big.NumJobs(); job++ {
		c, _ := big.Job(job)
		if c.Topology == "ring" && c.N == 32 && c.K == 2 {
			found = true
			if got, want := big.JobKey(job), small.JobKey(0); got != want {
				t.Errorf("enlarged-grid key differs:\n got %s\nwant %s", got, want)
			}
		}
	}
	if !found {
		t.Fatal("ring/32/2 cell not found in enlarged grid")
	}

	// Each of these variations must change the key: they all change row
	// bytes (seed, value, or serialized identity columns).
	base := SweepSpec{Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7}
	variants := map[string]SweepSpec{
		"seed":      {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 8},
		"process":   {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Process: ProcWalk},
		"metric":    {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Metric: MetricReturn},
		"kernel":    {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Kernel: KernelGeneric},
		"maxrounds": {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, MaxRounds: 999},
		"schedule":  {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Schedules: []Schedule{"delay:p=0.25"}},
		"probes":    {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Probes: []ProbeSpec{{Name: "coverage", Stride: 16}}},
		"mission":   {Topologies: []Topo{"ring"}, Sizes: []int{32}, Agents: []int{2}, Seed: 7, Missions: []Mission{"explore"}},
	}
	baseExp, err := Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := baseExp.JobKey(0)
	if !strings.HasPrefix(baseKey, "rowcache/v3|") {
		t.Errorf("key %q lacks the rowcache/v3 version prefix", baseKey)
	}
	for name, v := range variants {
		exp, err := Expand(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exp.JobKey(0) == baseKey {
			t.Errorf("varying %s does not change the job key %s", name, baseKey)
		}
	}
}

// TestRowBytesRoundTrip pins the byte stability the row cache rests on:
// decode/encode of canonical row bytes reproduces them exactly, for every
// row shape the engine emits (values, errors, series, schedules), and
// re-indexing a decoded row changes only the leading cell field.
func TestRowBytesRoundTrip(t *testing.T) {
	spec := expandTestSpec()
	spec.Probes = []ProbeSpec{{Name: "coverage", Stride: 64}}
	spec.Schedules = []Schedule{"none", "delay:p=0.25"}
	rows, err := New(Workers(4)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// An error row, too: k exceeding the ring size fails placement-side.
	errRows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"btree"}, Sizes: []int{1}, Agents: []int{1}, Seed: 1,
	})
	if err == nil {
		rows = append(rows, errRows...)
	}
	for i, r := range rows {
		b, err := RowBytes(r)
		if err != nil {
			t.Fatalf("row %d: RowBytes: %v", i, err)
		}
		dec, err := DecodeRow(b)
		if err != nil {
			t.Fatalf("row %d: DecodeRow: %v", i, err)
		}
		b2, err := RowBytes(dec)
		if err != nil {
			t.Fatalf("row %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("row %d: decode/encode not byte-stable:\n got %s\nwant %s", i, b2, b)
		}
		// The cache stores rows index-free and patches the index back in;
		// that patch must be invisible to every other byte.
		dec.Index = 0
		zeroed, err := RowBytes(dec)
		if err != nil {
			t.Fatal(err)
		}
		redec, err := DecodeRow(zeroed)
		if err != nil {
			t.Fatal(err)
		}
		redec.Index = r.Index
		b3, err := RowBytes(redec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b3) {
			t.Errorf("row %d: index patch not byte-stable:\n got %s\nwant %s", i, b3, b)
		}
	}
}

// TestSinkRegistry covers the fifth registry: the built-in formats resolve,
// unknown names fail with the registered list, and the summary format
// renders the same table the SummarySink always produced.
func TestSinkRegistry(t *testing.T) {
	names := Sinks.Names()
	for _, want := range []string{"csv", "jsonl", "summary"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Sinks.Names() = %v, missing %q", names, want)
		}
	}
	if _, err := NewSink("nope", nil); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("NewSink(nope) error %v should list registered sinks", err)
	}

	spec := SweepSpec{Topologies: []Topo{"ring"}, Sizes: []int{64}, Agents: []int{2}, Replicas: 2, Seed: 3}
	var viaRegistry, direct bytes.Buffer
	sink, err := NewSink("summary", &viaRegistry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(2)).Run(spec, sink); err != nil {
		t.Fatal(err)
	}
	sum := NewSummarySink()
	if _, err := New(Workers(2)).Run(spec, sum); err != nil {
		t.Fatal(err)
	}
	if err := sum.WriteTable(&direct); err != nil {
		t.Fatal(err)
	}
	if viaRegistry.String() != direct.String() {
		t.Errorf("registry summary differs from SummarySink table:\n got %q\nwant %q",
			viaRegistry.String(), direct.String())
	}
}
