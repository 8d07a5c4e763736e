package viz

import (
	"strings"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/ringdom"
)

func stabilizedTracker(t *testing.T, n, k int) *ringdom.Tracker {
	t.Helper()
	g := graph.Ring(n)
	positions := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, positions)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(positions...),
		core.WithPointers(ptr))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ringdom.NewTracker(sys)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(int64(8 * n))
	return tr
}

func TestStripShape(t *testing.T) {
	const n, k = 90, 3
	tr := stabilizedTracker(t, n, k)
	nodes, borders, err := Strip(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != n || len(borders) != n {
		t.Fatalf("lengths %d, %d", len(nodes), len(borders))
	}
	// Exactly k agents visible (no two agents share a node after
	// stabilization from equal spacing).
	if got := strings.Count(nodes, "*"); got != k {
		t.Errorf("agent marks = %d, strip %q", got, nodes)
	}
	// All three lazy domains present.
	for _, ch := range []string{"a", "b", "c"} {
		if !strings.Contains(nodes, ch) {
			t.Errorf("domain letter %q missing in %q", ch, nodes)
		}
	}
	// No unvisited nodes remain.
	if strings.Contains(nodes, "#") {
		t.Errorf("unvisited marks remain: %q", nodes)
	}
	// Some border marks exist.
	if strings.TrimSpace(borders) == "" {
		t.Error("no border marks")
	}
}

func TestStripEarlyShowsUnvisited(t *testing.T) {
	g := graph.Ring(40)
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(0),
		core.WithPointers(core.PointersUniform(g, graph.RingCW)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ringdom.NewTracker(sys)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(5)
	nodes, _, err := Strip(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nodes, "#") {
		t.Errorf("expected unvisited marks in %q", nodes)
	}
	if !strings.Contains(nodes, "*") {
		t.Errorf("expected an agent mark in %q", nodes)
	}
}

func TestDomainBar(t *testing.T) {
	tr := stabilizedTracker(t, 60, 3)
	p, err := ringdom.Domains(tr.System())
	if err != nil {
		t.Fatal(err)
	}
	out := DomainBar(p, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("bar lines: %q", out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "█") {
			t.Errorf("bar missing in %q", line)
		}
	}
}

func TestPathProfile(t *testing.T) {
	g := graph.Path(64)
	ptr, err := core.PointersTowardNode(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(core.AllOnNode(0, 3)...),
		core.WithPointers(ptr))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200)
	out := PathProfile(sys, 32)
	if len(out) != 32 {
		t.Fatalf("width = %d", len(out))
	}
	if !strings.Contains(out, "A") {
		t.Errorf("no agent in %q", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("no frontier in %q", out)
	}
	// Full width when width exceeds n.
	if got := PathProfile(sys, 1000); len(got) != 64 {
		t.Fatalf("clip failed: %d", len(got))
	}
}

func TestStripShowsEdgeTypeBorder(t *testing.T) {
	// An asymmetric placement on an odd ring phase-locks the two agents
	// into edge swaps (Fig. 1b): the '^^' mark must appear.
	const n = 37
	g := graph.Ring(n)
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(7, 35))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ringdom.NewTracker(sys)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(int64(10 * n))
	sawEdge := false
	for sample := 0; sample < 6*n && !sawEdge; sample++ {
		tr.Run(1)
		_, marks, err := Strip(tr)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(marks, "^^") {
			sawEdge = true
		}
	}
	if !sawEdge {
		t.Error("no edge-type border rendered")
	}
}

func TestDomainBarShowsUnvisited(t *testing.T) {
	g := graph.Ring(60)
	ptr, err := core.PointersNegative(g, []int{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(0, 30),
		core.WithPointers(ptr))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(10) // far from covered
	p, err := ringdom.Domains(sys)
	if err != nil {
		t.Fatal(err)
	}
	out := DomainBar(p, 20)
	if !strings.Contains(out, "unvisited") {
		t.Errorf("unvisited line missing:\n%s", out)
	}
}
