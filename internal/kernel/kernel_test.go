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
		shape Shape
	}{
		{"dense ring at the threshold", graph.Ring(80), 80 / DenseFraction, false, "ring", ShapeRing},
		{"sparse ring", graph.Ring(80), 80/DenseFraction - 1, false, "", ShapeRing},
		{"forced sparse ring", graph.Ring(80), 1, true, "ring", ShapeRing},
		{"dense path", graph.Path(16), 16, false, "path", ShapePath},
		{"sparse path", graph.Path(64), 2, false, "", ShapePath},
		{"forced general graph", graph.Complete(8), 1000, true, "", ShapeGeneral},
	}
	for _, tc := range cases {
		s, shape := Select(tc.g, tc.k, tc.force)
		got := ""
		if s != nil {
			got = s.Name()
		}
		if got != tc.want || shape != tc.shape {
			t.Errorf("%s: kernel %q shape %v, want %q %v", tc.name, got, shape, tc.want, tc.shape)
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	st := NewState(8)
	st.Agents[3] = 5
	st.Ptr[3] = 1
	st.Covered = 1
	c := st.Clone()
	ringStepper{}.Step(&c)
	if st.Agents[3] != 5 || st.Round != 0 {
		t.Error("stepping a clone mutated the original")
	}
	if c.Round != 1 || c.Agents[3] != 0 {
		t.Error("clone did not step")
	}
	if c.Agents[2]+c.Agents[4] != 5 {
		t.Errorf("clone arrivals wrong: %v", c.Agents)
	}
}
