package main

import (
	"bytes"
	"strings"
	"testing"

	"rotorring/internal/engine"
)

func TestRotorRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-topology", "ring", "-n", "128", "-k", "4",
		"-place", "equal", "-pointers", "negative", "-metric", "cover"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ring(128)", "cover time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRotorReturnRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-topology", "ring", "-n", "128", "-k", "4",
		"-place", "equal", "-pointers", "negative", "-metric", "return"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ring(128)", "limit cycle", "return time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWalkRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-topology", "ring", "-n", "128", "-k", "4", "-process", "walk", "-trials", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E[cover]") {
		t.Errorf("output missing expectation:\n%s", buf.String())
	}
}

func TestTopologies(t *testing.T) {
	cases := map[string][]string{
		"ring":      {"-n", "16"},
		"path":      {"-n", "16"},
		"grid":      {"-n", "5"},
		"torus":     {"-n", "4"},
		"complete":  {"-n", "8"},
		"star":      {"-n", "8"},
		"hypercube": {"-n", "3"},
		"btree":     {"-n", "3"},
	}
	for topo, extra := range cases {
		var buf bytes.Buffer
		args := append([]string{"-topology", topo, "-k", "2", "-place", "random", "-pointers", "random"}, extra...)
		if err := run(args, &buf); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
	}
}

// TestTopologySpecList: -topology takes a comma list of parameterized
// specs, sweeping a heterogeneous grid in one run with byte-identical
// output across worker counts.
func TestTopologySpecList(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, w := range []string{"1", "8"} {
		var buf bytes.Buffer
		err := run([]string{"-topology", "ring,grid:8x4,torus:8x8,rr:3", "-n", "32",
			"-k", "2", "-workers", w, "-format", "jsonl"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Error("mixed-topology jsonl differs across -workers")
	}
	for _, want := range []string{`"topology":"ring"`, `"spec":"grid:8x4"`,
		`"spec":"torus:8x8"`, `"spec":"rr:3x32"`, `"max_degree":4`} {
		if !strings.Contains(outputs[0], want) {
			t.Errorf("output missing %s:\n%s", want, outputs[0])
		}
	}

	// A self-sized single spec renders the text header from its own size.
	var buf bytes.Buffer
	if err := run([]string{"-topology", "grid:8x4", "-k", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "grid(8x4)") {
		t.Errorf("missing self-sized topology header:\n%s", buf.String())
	}

	// A grid whose shared graph cannot exist (rr needs n*d even) degrades
	// to per-row failures in the summary table; only a single
	// configuration fails hard.
	buf.Reset()
	if err := run([]string{"-topology", "rr:3", "-n", "9", "-k", "2,4"}, &buf); err != nil {
		t.Fatalf("unbuildable grid should degrade, got: %v", err)
	}
	if got := strings.Count(buf.String(), "failed=1"); got != 2 {
		t.Errorf("want 2 failed cells in the table:\n%s", buf.String())
	}
	if err := run([]string{"-topology", "rr:3", "-n", "9", "-k", "2"}, &buf); err == nil {
		t.Error("single unbuildable configuration should fail hard")
	}
}

func TestSweepText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "32,64", "-k", "2,4", "-place", "single,equal",
		"-pointers", "zero", "-replicas", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweep: 8 cells x 2 replicas") {
		t.Errorf("missing sweep header:\n%s", out)
	}
	if got := strings.Count(out, "ring "); got != 8 {
		t.Errorf("summary table has %d cells, want 8:\n%s", got, out)
	}
}

func TestSweepCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "32", "-k", "2,4", "-format", "csv"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 cells x 1 replica
		t.Fatalf("got %d CSV lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "cell,topology,n,k,") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
}

// TestSweepWorkerIndependence: the command's structured output is
// byte-identical whatever -workers is set to.
func TestSweepWorkerIndependence(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, w := range []string{"1", "4", "8"} {
		var buf bytes.Buffer
		err := run([]string{"-n", "32,48", "-k", "2,3", "-place", "random",
			"-pointers", "random", "-replicas", "3", "-workers", w,
			"-format", "jsonl"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("jsonl output differs between -workers settings:\n%s\nvs\n%s",
				outputs[0], outputs[i])
		}
	}
	if !strings.Contains(outputs[0], `"seed"`) {
		t.Errorf("jsonl rows missing seed field:\n%s", outputs[0])
	}
}

func TestWalkSweepReturn(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "32", "-k", "4", "-process", "walk", "-metric", "return",
		"-trials", "2", "-format", "jsonl"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"metric":"return"`) {
		t.Errorf("walk return sweep missing metric field:\n%s", buf.String())
	}
}

// TestSingleCellReplicas: a 1-cell rotor sweep with replicas reports the
// aggregate, not just the first replica.
func TestSingleCellReplicas(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "64", "-k", "2", "-place", "random", "-replicas", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 replicas") || !strings.Contains(out, "±") {
		t.Errorf("replica aggregate missing:\n%s", out)
	}
}

// TestSweepPartialFailure: a grid where one cell exhausts its budget still
// renders the summary table, flagging the failed cell.
func TestSweepPartialFailure(t *testing.T) {
	var buf bytes.Buffer
	// Budget 40 covers ring(32) with k=2 (cover 27) but not ring(128).
	err := run([]string{"-n", "32,128", "-k", "2", "-budget", "40"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "failed=1") {
		t.Errorf("failed cell not flagged:\n%s", out)
	}
	if !strings.Contains(out, "n=32") {
		t.Errorf("successful cell missing from table:\n%s", out)
	}
}

func TestBadInputs(t *testing.T) {
	for name, args := range map[string][]string{
		"topology":      {"-topology", "moebius"},
		"topology-spec": {"-topology", "grid:0x5"},
		"topology-list": {"-topology", "ring,rr"},
		"place":         {"-place", "everywhere"},
		"pointers":      {"-pointers", "sideways"},
		"flag":          {"-bogus"},
		"n":             {"-n", "12,zebra"},
		"k":             {"-k", "0"},
		"format":        {"-format", "yaml"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
}

// TestScheduleFlag: -schedule takes a comma list of perturbation specs
// (whose parameters themselves contain commas), sweeps them as an
// innermost axis, and renders the schedule column in text mode.
func TestScheduleFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "64", "-k", "4",
		"-schedule", "none,delay:p=0.5,edgefail:t=8,count=2,repair=20"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sched=delay:p=0.5", "sched=edgefail:t=8,count=2,repair=20"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// JSONL rows carry the canonical schedule spec.
	buf.Reset()
	if err := run([]string{"-n", "64", "-k", "4", "-schedule", "reset:t=4", "-format", "jsonl"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schedule":"reset:t=4"`) {
		t.Errorf("JSONL row missing schedule field:\n%s", buf.String())
	}

	// The restab_time metric is reachable by name.
	buf.Reset()
	if err := run([]string{"-n", "32", "-k", "2", "-place", "random", "-pointers", "random",
		"-schedule", "edgefail:t=64,count=1", "-metric", "restab_time"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "restab_time metric") {
		t.Errorf("text output missing restab_time header:\n%s", buf.String())
	}

	// Malformed schedules fail fast.
	if err := run([]string{"-n", "32", "-k", "2", "-schedule", "delay:p=7"}, &buf); err == nil {
		t.Error("bad schedule accepted")
	}
}

// TestMissionRun: mission sweeps through the CLI — the summary line labels
// the mission column, and conflicting or malformed missions fail fast.
func TestMissionRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "64", "-k", "4", "-mission", "explore,patrol:horizon=256"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mission=explore", "mission=patrol:horizon=256", "mission metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	if err := run([]string{"-n", "32", "-k", "2", "-mission", "explore", "-metric", "return"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "missions require") {
		t.Errorf("-metric return + -mission not rejected: %v", err)
	}
	if err := run([]string{"-n", "32", "-k", "2", "-mission", "patrol:horizon=0"}, &buf); err == nil {
		t.Error("bad mission accepted")
	}
}

// TestSplitSpecs: the family-aware comma split keeps parameter fragments
// attached to their spec, for schedules and missions alike.
func TestSplitSpecs(t *testing.T) {
	got := splitSpecs("none, edgefail:t=10,count=2 ,churn:join=1@2,leave=3@4,reset:t=9", engine.Schedules.Lookup)
	want := []string{"none", "edgefail:t=10,count=2", "churn:join=1@2,leave=3@4", "reset:t=9"}
	if len(got) != len(want) {
		t.Fatalf("splitSpecs = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitSpecs[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	got = splitSpecs("explore, patrol:horizon=64,warmup=8 ,quiesce:window=16,balance:horizon=9", engine.Missions.Lookup)
	want = []string{"explore", "patrol:horizon=64,warmup=8", "quiesce:window=16", "balance:horizon=9"}
	if len(got) != len(want) {
		t.Fatalf("splitSpecs = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitSpecs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestUnknownRegistryNames: an unknown name on any registry-backed flag
// exits nonzero with the registered list in the error — fail-fast, before
// any grid expansion or engine work.
func TestUnknownRegistryNames(t *testing.T) {
	cases := map[string]struct {
		args []string
		want string // a registered name the error must advertise
	}{
		"process":  {[]string{"-process", "psychic"}, "rotor"},
		"metric":   {[]string{"-metric", "vibes"}, "cover"},
		"probes":   {[]string{"-probes", "telepathy:64", "-format", "jsonl"}, "coverage"},
		"format":   {[]string{"-format", "yaml"}, "jsonl"},
		"topology": {[]string{"-topology", "moebius"}, "ring"},
		"schedule": {[]string{"-schedule", "chaos:p=1"}, "delay"},
		"mission":  {[]string{"-mission", "warp"}, "patrol"},
	}
	for name, tc := range cases {
		var buf bytes.Buffer
		err := run(append([]string{"-n", "32", "-k", "2"}, tc.args...), &buf)
		if err == nil {
			t.Errorf("%s: unknown name accepted", name)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "registered:") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not list registered names", name, msg)
		}
	}
}

// TestFormatViaSinkRegistry: -format resolves by name through the sink
// registry, so the summary sink (and any future registered format) works
// without command changes.
func TestFormatViaSinkRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "32,64", "-k", "2", "-format", "summary"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"n=32", "n=64"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}
