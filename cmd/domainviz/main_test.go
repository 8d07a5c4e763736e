package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderFrames(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "48", "-k", "3", "-frames", "4", "-every", "24", "-warmup", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "round "); got != 4 {
		t.Errorf("frames rendered = %d:\n%s", got, out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no agents rendered")
	}
}

func TestRenderWithBars(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "48", "-k", "2", "-frames", "2", "-bars", "-warmup", "200"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "█") {
		t.Error("no bars rendered")
	}
}

func TestWorstCaseInit(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "64", "-k", "4", "-place", "single",
		"-pointers", "toward", "-frames", "2", "-warmup", "50"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Error("expected unexplored territory early in the worst case")
	}
}

func TestBadInputs(t *testing.T) {
	for name, args := range map[string][]string{
		"place":    {"-place", "nowhere"},
		"pointers": {"-pointers", "inward"},
		"flag":     {"-bogus"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
}

// TestPoliciesFromEngine: -place and -pointers resolve through the
// engine's placement and pointer vocabularies, so an unknown name lists
// the engine's spellings and the random policies render.
func TestPoliciesFromEngine(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-place", "nowhere"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "single|equal|random") {
		t.Errorf("unknown -place: error %v, want the placements single|equal|random", err)
	}
	buf.Reset()
	err = run([]string{"-n", "48", "-k", "3", "-place", "random", "-pointers", "random", "-frames", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "placement=random, pointers=random") || strings.Count(out, "round ") != 2 {
		t.Errorf("random policies did not render two frames:\n%s", out)
	}
}
