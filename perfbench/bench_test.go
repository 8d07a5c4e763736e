package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rotorring/internal/engine"
)

// listing is BENCHMARK.json, seen from this package's directory.
var listing = filepath.Join("..", "BENCHMARK.json")

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinyConfig is one test-scale invocation.
func tinyConfig(t *testing.T, workload string, trace, corrupt bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 7, window: 400 * time.Millisecond, trace: trace,
		workdir: dir, spans: filepath.Join(dir, "spans.jsonl"), listing: listing,
		workers: 2, tiny: true, corrupt: corrupt, log: io.Discard,
	}
}

// tinyRun runs one workload at test scale and decodes its result line.
func tinyRun(t *testing.T, workload string, trace, corrupt bool) resultLine {
	t.Helper()
	cfg := tinyConfig(t, workload, trace, corrupt)
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	line, err := res.jsonLine()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out resultLine
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if trace {
		if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run wrote no spans (%v)", workload, err)
		}
	}
	return out
}

// TestEveryListedMetricPrinted runs every workload BENCHMARK.json lists at
// test scale, untraced and traced: each prints exactly the listed metrics
// with their units, and a clean run fails nothing.
func TestEveryListedMetricPrinted(t *testing.T) {
	bf, err := readBenchmarkFile(listing)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			out := tinyRun(t, w.Name, trace, false)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.Name, trace, out.Correct, out.Failed, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed=%v with unit %q, want unit %q", w.Name, trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestFlippedByteFails checks that one flipped byte of a delivered sweep
// shows in the failure count.
func TestFlippedByteFails(t *testing.T) {
	if clean := tinyRun(t, "scenario-mix", false, false); clean.Failed != 0 {
		t.Errorf("clean run failed %d of %d", clean.Failed, clean.Attempted)
	}
	if bad := tinyRun(t, "scenario-mix", false, true); bad.Failed == 0 || bad.Correct {
		t.Errorf("flipped byte not caught: %d of %d failed, correct=%v", bad.Failed, bad.Attempted, bad.Correct)
	}
}

// TestFlippedStreamByteFails checks the same for one byte of a row stream
// from rotord.
func TestFlippedStreamByteFails(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		res := &result{}
		if err := rotordLayers(tinyConfig(t, "scenario-mix", true, corrupt), newTracer(), make(map[string]float64), res); err != nil {
			t.Fatal(err)
		}
		if caught := res.failed > 0; caught != corrupt {
			t.Errorf("corrupt=%v: %d of %d failed", corrupt, res.failed, res.attempted)
		}
	}
}

// generators are the seeded inputs: each workload's pass, and the traced
// rotord submissions.
func generators() map[string]func(seed uint64) []engine.SweepSpec {
	gens := map[string]func(seed uint64) []engine.SweepSpec{
		"rotord submissions": func(seed uint64) []engine.SweepSpec {
			subs, err := submissions(seed, true, 4)
			if err != nil {
				panic(err)
			}
			return specsOf(subs)
		},
	}
	for _, w := range workloads {
		gens[w.name] = func(seed uint64) []engine.SweepSpec { return w.pass(newRNG(seed), true) }
	}
	return gens
}

// inputDigests returns digests of generated specs and of the library's row
// bytes for them.
func inputDigests(t *testing.T, gen []engine.SweepSpec) (specs, rows [32]byte) {
	t.Helper()
	var wire, out bytes.Buffer
	for _, s := range gen {
		b, err := engine.EncodeWireSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(b)
	}
	refs, _, err := computeReferences(gen, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		for _, l := range ref.lines {
			out.Write(l)
		}
	}
	return sha256.Sum256(wire.Bytes()), sha256.Sum256(out.Bytes())
}

// TestSeedDeterminism checks that a seed fixes the generated specs and the
// row bytes, and that another seed changes the specs.
func TestSeedDeterminism(t *testing.T) {
	for name, gen := range generators() {
		specs1, rows1 := inputDigests(t, gen(3))
		specs2, rows2 := inputDigests(t, gen(3))
		if specs1 != specs2 || rows1 != rows2 {
			t.Errorf("%s: seed 3 generated different specs or rows on a second run", name)
		}
		if other, _ := inputDigests(t, gen(4)); other == specs1 {
			t.Errorf("%s: seeds 3 and 4 generated the same specs", name)
		}
	}
}
