package kernel

import (
	"testing"

	"rotorring/internal/graph"
)

// The full behavioral contract — bit-identical equivalence with the
// generic engine — is enforced by the differential suite in internal/core
// (which owns both engines). These tests cover the package's own
// primitives: shape detection, selection policy and state cloning.

func TestDetectShape(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want Shape
	}{
		{graph.Ring(3), ShapeRing},
		{graph.Ring(64), ShapeRing},
		{graph.Path(2), ShapePath},
		{graph.Path(17), ShapePath},
		{graph.Torus2D(3, 3), ShapeGeneral},
		{graph.Complete(4), ShapeGeneral},
		{graph.Star(5), ShapeGeneral},
		{graph.CompleteBinaryTree(3), ShapeGeneral},
	}
	for _, tc := range cases {
		if got := DetectShape(tc.g); got != tc.want {
			t.Errorf("%s: shape %v, want %v", tc.g.Name(), got, tc.want)
		}
	}
}

func TestShapeStrings(t *testing.T) {
	if ShapeRing.String() != "ring" || ShapePath.String() != "path" || ShapeGeneral.String() != "general" {
		t.Error("shape strings wrong")
	}
}

func TestSelectPolicy(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		k     int64
		force bool
		want  string // the kernel's name, "" for none
		held  bool
		shape Shape
	}{
		{"dense ring at the threshold", graph.Ring(80), 80 / DenseFraction, false, "ring", true, ShapeRing},
		{"packed ring below the held threshold", graph.Ring(80), 80/DenseFraction - 1, false, "ring", false, ShapeRing},
		{"packed ring at the threshold", graph.Ring(640), 640 / PackedFraction, false, "ring", false, ShapeRing},
		{"sparse ring", graph.Ring(640), 640/PackedFraction - 1, false, "", false, ShapeRing},
		{"forced sparse ring", graph.Ring(80), 1, true, "ring", true, ShapeRing},
		{"dense path", graph.Path(16), 16, false, "path", true, ShapePath},
		{"packed path", graph.Path(64), 2, false, "path", false, ShapePath},
		{"sparse path", graph.Path(4096), 127, false, "", false, ShapePath},
		{"forced general graph", graph.Complete(8), 1000, true, "", false, ShapeGeneral},
	}
	for _, tc := range cases {
		s, held, shape := Select(tc.g, tc.k, tc.force)
		got := ""
		if s != nil {
			got = s.Name()
		}
		if got != tc.want || held != tc.held || shape != tc.shape {
			t.Errorf("%s: kernel %q held %v shape %v, want %q %v %v", tc.name, got, held, shape, tc.want, tc.held, tc.shape)
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	st := NewState(8)
	st.Agents[3] = 5
	st.Visits[3] = 5
	st.Ptr[3] = 1
	st.Covered = 1
	c := st.Clone()
	ringStepper{}.Step(&c)
	if st.Agents[3] != 5 || st.Round != 0 || st.Packed() {
		t.Error("stepping a clone mutated the original")
	}
	c.Materialize()
	if c.Round != 1 || c.Agents[3] != 0 {
		t.Error("clone did not step")
	}
	if c.Agents[2] != 3 || c.Agents[4] != 2 || c.Visits[2] != 3 || c.Covered != 3 {
		t.Errorf("clone arrivals wrong: agents %v, visits %v", c.Agents, c.Visits)
	}

	// A clone of a packed state steps on its own planes.
	d := c.Clone()
	ringStepper{}.Step(&d)
	ringStepper{}.Step(&d)
	c.Materialize()
	if c.Round != 1 || c.Agents[2] != 3 || c.Visits[3] != 5 {
		t.Errorf("stepping a packed clone mutated the original: %v", c.Agents)
	}
	d.Materialize()
	if d.Round != 3 || !d.Packed() {
		t.Errorf("packed clone did not step: round %d", d.Round)
	}
}

// TestPackedLazyView checks the packed state's flat view: Materialize
// keeps the packed state, Unpack drops it and, when asked, leaves the last
// round's movers in Scratch, and the visits derived from thousands of
// packed rounds add up, with every node's count kept in the packed planes
// past 64 nodes and several planes.
func TestPackedLazyView(t *testing.T) {
	const n = 130
	st := NewState(n)
	st.Agents[0], st.Agents[64], st.Agents[129] = 40, 3, 9
	for v, m := range st.Agents {
		if m > 0 {
			st.Visits[v] = m
			st.Covered++
		}
	}
	const rounds = 20000 // derived at the last two rounds
	var pre []int64
	for r := 0; r < rounds; r++ {
		if r == rounds-1 {
			st.Materialize()
			pre = append([]int64(nil), st.Agents...)
		}
		pathStepper{}.Step(&st)
	}
	if !st.Packed() {
		t.Fatal("packed state dropped by Materialize")
	}
	st.Materialize()
	var k, visits int64
	for v := 0; v < n; v++ {
		k += st.Agents[v]
		visits += st.Visits[v]
	}
	if k != 52 || visits != 52*(rounds+1) || st.Ptr[0] != 0 || st.Ptr[n-1] != 0 {
		t.Fatalf("after %d rounds: %d agents, %d visits, endpoint pointers %d %d", rounds, k, visits, st.Ptr[0], st.Ptr[n-1])
	}
	st.Unpack(true)
	if st.Packed() {
		t.Fatal("Unpack kept the packed state")
	}
	for v := range pre {
		if st.Scratch[v] != pre[v] {
			t.Fatalf("Unpack left movers %v, want the last round's counts %v", st.Scratch, pre)
		}
	}
}
