package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWireSpecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"Ring", "GRID:5", "rr:3"}, // deliberately non-canonical
		Sizes:      []int{32, 64},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceSingle, PlaceEqual},
		Pointers:   []Pointer{PtrZero, PtrNegative},
		Process:    "rotor",
		Metric:     "cover",
		Probes:     []ProbeSpec{{Name: "coverage", Stride: 256}},
		Replicas:   3,
		Seed:       42,
		MaxRounds:  1 << 20,
		Kernel:     KernelFast,
		Schedules:  []Schedule{"none", "EDGEFAIL:t=9"},
	}
	b, err := EncodeWireSpec(spec)
	if err != nil {
		t.Fatalf("EncodeWireSpec: %v", err)
	}
	// Canonicalization happened on encode: the wire carries registry
	// canonical spellings, never the caller's.
	for _, want := range []string{`"grid:5x5"`, `"ring"`, `"edgefail:t=9,count=1"`, `"single"`, `"negative"`, `"v":1`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("encoded spec %s missing %s", b, want)
		}
	}
	dec, err := DecodeWireSpec(b)
	if err != nil {
		t.Fatalf("DecodeWireSpec: %v", err)
	}
	b2, err := EncodeWireSpec(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("wire encoding not a decode/encode fixed point:\n got %s\nwant %s", b2, b)
	}
	// The decoded spec must run to the same rows as the original.
	want, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Workers(2)).Run(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded spec ran %d rows, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seed != want[i].Seed || got[i].Value != want[i].Value {
			t.Errorf("row %d differs after wire round trip: got seed=%d value=%g, want seed=%d value=%g",
				i, got[i].Seed, got[i].Value, want[i].Seed, want[i].Value)
		}
	}
}

// wireRejections are wire bodies DecodeWireSpec must reject, with a
// substring of the expected error. The removed library spellings
// (topology, walk, returnTime) fail like any other unknown key.
var wireRejections = []struct {
	name, body, want string
}{
	{"missing v", `{"agents":[2],"sizes":[32]}`, `missing required version field "v"`},
	{"wrong v", `{"v":2,"agents":[2],"sizes":[32]}`, "unsupported version"},
	{"deprecated topology", `{"v":1,"topology":"ring","agents":[2],"sizes":[32]}`, "unknown field(s) topology"},
	{"deprecated walk", `{"v":1,"walk":true,"agents":[2],"sizes":[32]}`, "unknown field(s) walk"},
	{"deprecated returnTime", `{"v":1,"returnTime":true,"agents":[2],"sizes":[32]}`, "unknown field(s) returnTime"},
	{"unknown field", `{"v":1,"agents":[2],"sizes":[32],"shard":4}`, `unknown field(s) shard`},
	{"unknown process", `{"v":1,"agents":[2],"sizes":[32],"process":"teleport"}`, "unknown process"},
	{"unknown metric", `{"v":1,"agents":[2],"sizes":[32],"metric":"vibes"}`, "unknown metric"},
	{"bad topology", `{"v":1,"topologies":["klein"],"agents":[2],"sizes":[32]}`, "unknown"},
	{"bad schedule", `{"v":1,"agents":[2],"sizes":[32],"schedules":["quake"]}`, "unknown schedule"},
	{"bad placement", `{"v":1,"agents":[2],"sizes":[32],"placements":["middle"]}`, "unknown placement"},
	{"bad pointer", `{"v":1,"agents":[2],"sizes":[32],"pointers":["north"]}`, "unknown pointer"},
	{"bad kernel", `{"v":1,"agents":[2],"sizes":[32],"kernel":"turbo"}`, "unknown kernel"},
	{"no agents", `{"v":1,"sizes":[32]}`, "agent count"},
	{"schedule/metric conflict", `{"v":1,"agents":[2],"sizes":[32],"metric":"restab_time"}`, "requires at least one schedule"},
}

func TestWireSpecDecodeRejections(t *testing.T) {
	for _, c := range wireRejections {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeWireSpec([]byte(c.body))
			if err == nil {
				t.Fatalf("decode of %s succeeded, want error containing %q", c.body, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("decode error %q does not contain %q", err, c.want)
			}
		})
	}
}

// FuzzDecodeWireSpec: no input panics the decoder; every spec it accepts
// encodes, and the canonical bytes are a decode/encode fixed point. The
// corpus starts from the specjson golden fixtures and the rejection
// bodies above.
func FuzzDecodeWireSpec(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "specjson", "testdata", "*.wire.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no specjson golden fixtures found (%v)", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range wireRejections {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeWireSpec(data)
		if err != nil {
			return
		}
		canon, err := EncodeWireSpec(spec)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode it: %v", data, err)
		}
		again, err := DecodeWireSpec(canon)
		if err != nil {
			t.Fatalf("canonical bytes %s of %q do not decode: %v", canon, data, err)
		}
		re, err := EncodeWireSpec(again)
		if err != nil {
			t.Fatalf("canonical bytes %s decode but do not re-encode: %v", canon, err)
		}
		if !bytes.Equal(re, canon) {
			t.Fatalf("canonical bytes are not a fixed point:\n got %s\nwant %s", re, canon)
		}
	})
}
