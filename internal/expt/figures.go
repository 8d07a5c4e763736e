package expt

import (
	"fmt"
	"sort"

	"rotorring/internal/continuum"
	"rotorring/internal/core"
	"rotorring/internal/deploy"
	"rotorring/internal/graph"
	"rotorring/internal/ringdom"
	"rotorring/internal/viz"
	"rotorring/internal/xrand"
)

func seededRng(seed uint64, n, k int) *xrand.Rand {
	return xrand.New(seed ^ (uint64(n) << 20) ^ uint64(k))
}

// expF1 — Fig. 1: the two shapes a settled border between lazy domains can
// take — vertex-type (one node between the lazy arcs) and edge-type (arcs
// meeting across one edge, where the two agents swap).
func expF1() *Experiment {
	return &Experiment{
		ID:       "F1",
		PaperRef: "Fig. 1 / §2.2",
		Claim:    "stabilized lazy-domain borders are vertex-type or edge-type",
		Run: func(cfg Config) (*Result, error) {
			samples := 60
			if cfg.Scale == Full {
				samples = 200
			}
			// Two stabilized systems: the symmetric one settles into pure
			// vertex-type borders (Fig. 1a); the asymmetric odd-ring one
			// phase-locks its agents into edge swaps (Fig. 1b).
			type instance struct {
				name   string
				n      int
				starts []int
				neg    bool
			}
			instances := []instance{
				{"symmetric (equal spacing)", 96, core.EquallySpaced(96, 3), true},
				{"asymmetric (odd ring)", 59, []int{15, 36, 47, 57}, false},
			}
			if cfg.Scale == Full {
				instances[0] = instance{"symmetric (equal spacing)", 240, core.EquallySpaced(240, 5), true}
			}

			table := &Table{
				Title:   fmt.Sprintf("F1: border-type census over %d samples per instance", samples),
				Headers: []string{"instance", "border kind", "count", "fraction"},
				Notes:   []string{"legend: letters = lazy domains, * = agent, | = vertex-type border, ^^ = edge-type border"},
			}
			settledMin := 1.0
			edgeSeen := 0
			for _, inst := range instances {
				g := graph.Ring(inst.n)
				ptr := core.PointersUniform(g, 0)
				if inst.neg {
					var err error
					ptr, err = core.PointersNegative(g, inst.starts)
					if err != nil {
						return nil, err
					}
				}
				sys, err := core.NewSystem(g,
					core.WithAgentsAt(inst.starts...),
					core.WithPointers(ptr))
				if err != nil {
					return nil, err
				}
				tr, err := ringdom.NewTracker(sys)
				if err != nil {
					return nil, err
				}
				tr.Run(int64(10 * inst.n)) // stabilize

				census := map[ringdom.BorderKind]int{}
				for s := 0; s < samples; s++ {
					tr.Run(7)
					borders, err := tr.Borders()
					if err != nil {
						return nil, err
					}
					for _, b := range borders {
						census[b.Kind]++
					}
					if s == 0 {
						nodes, marks, err := viz.Strip(tr)
						if err != nil {
							return nil, err
						}
						table.Notes = append(table.Notes, inst.name+"  "+nodes, "      "+marks)
					}
				}
				total := 0
				for _, c := range census {
					total += c
				}
				for _, kind := range []ringdom.BorderKind{ringdom.BorderVertex, ringdom.BorderEdge, ringdom.BorderWide} {
					table.Rows = append(table.Rows, []string{
						inst.name,
						kind.String(),
						fmt.Sprintf("%d", census[kind]),
						fmt.Sprintf("%.3f", float64(census[kind])/float64(total)),
					})
				}
				settled := float64(census[ringdom.BorderVertex]+census[ringdom.BorderEdge]) / float64(total)
				if settled < settledMin {
					settledMin = settled
				}
				edgeSeen += census[ringdom.BorderEdge]
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{
					{
						Name:   "fraction of settled (vertex/edge) borders",
						Spread: settledMin,
						Limit:  1,
						OK:     settledMin >= 0.9,
					},
					{
						Name:   "edge-type borders observed (Fig. 1b)",
						Spread: float64(edgeSeen),
						Limit:  float64(samples * 10),
						OK:     edgeSeen > 0,
					},
				},
			}, nil
		},
	}
}

// expF2 — Fig. 2: the Phase A / Phase B delayed deployment of Theorem 1,
// plus the structural prediction behind it — during worst-case exploration
// the i-th domain from the frontier has size ≈ a_i·S (Lemma 13 profile).
func expF2() *Experiment {
	return &Experiment{
		ID:       "F2",
		PaperRef: "Fig. 2 / Theorem 1 proof",
		Claim:    "delayed deployment maintains desirable configurations; domain profile follows a_i",
		Run: func(cfg Config) (*Result, error) {
			n, k := 192, 4
			if cfg.Scale == Full {
				n, k = 512, 6
			}

			res, err := deploy.Theorem1Deployment(n, k, deploy.Theorem1Options{})
			if err != nil {
				return nil, err
			}
			phaseTable := &Table{
				Title:   fmt.Sprintf("F2a: Theorem 1 delayed deployment on the %d-node path, k=%d", n, k),
				Headers: []string{"phase", "rounds", "S", "covered"},
				Notes: []string{
					fmt.Sprintf("total rounds T=%d, fully-active rounds τ=%d; Lemma 3: τ <= C(R[k]) <= T",
						res.CoverRounds, res.FullyActiveRounds),
				},
			}
			for _, rec := range res.Log {
				phaseTable.Rows = append(phaseTable.Rows, []string{
					string(rec.Kind),
					fmt.Sprintf("%d", rec.Rounds),
					fmt.Sprintf("%.0f", rec.S),
					fmt.Sprintf("%d", rec.Covered),
				})
			}

			profTable, shape, err := domainProfileTable(n, k)
			if err != nil {
				return nil, err
			}
			return &Result{
				Tables: []*Table{phaseTable, profTable},
				Shapes: []ShapeCheck{shape},
			}, nil
		},
	}
}

// domainProfileTable runs the undelayed worst case on a path until about
// 60% coverage and compares the measured domain-size profile (ordered from
// the exploration frontier) against the Lemma 13 prediction a_i·S.
func domainProfileTable(n, k int) (*Table, ShapeCheck, error) {
	prof, err := continuum.LimitProfile(k)
	if err != nil {
		return nil, ShapeCheck{}, err
	}
	g := graph.Path(n)
	ptr, err := core.PointersTowardNode(g, 0)
	if err != nil {
		return nil, ShapeCheck{}, err
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(core.AllOnNode(0, k)...),
		core.WithPointers(ptr))
	if err != nil {
		return nil, ShapeCheck{}, err
	}
	target := int(0.6 * float64(n))
	for sys.Covered() < target {
		sys.Step()
		if sys.Round() > 64*int64(n)*int64(n) {
			return nil, ShapeCheck{}, fmt.Errorf("expt: profile run did not reach %d covered nodes", target)
		}
	}
	sizes := pathDomainSizes(sys)
	S := float64(sys.Covered())

	table := &Table{
		Title: fmt.Sprintf(
			"F2b: measured domain profile at S=%.0f covered nodes (undelayed worst case, path n=%d, k=%d)", S, n, k),
		Headers: []string{"i (from frontier)", "|V_i|", "|V_i|/S", "a_i", "ratio"},
		Notes: []string{
			"the frontier view " + viz.PathProfile(sys, 72),
			"a_i is the Lemma 13 limit profile; the innermost domain absorbs the origin boundary",
		},
	}
	var ratios []float64
	for i := 1; i <= k && i <= len(sizes); i++ {
		frac := float64(sizes[i-1]) / S
		ratio := frac / prof.A[i]
		if i < k { // the origin-side domain is excluded from the shape check
			ratios = append(ratios, ratio)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", sizes[i-1]),
			fmt.Sprintf("%.4f", frac),
			fmt.Sprintf("%.4f", prof.A[i]),
			fmt.Sprintf("%.3f", ratio),
		})
	}
	return table, newShapeCheck("|V_i|/(a_i·S) across domains", ratios, 3), nil
}

// pathDomainSizes computes agent-domain sizes on a path, ordered from the
// exploration frontier (highest node indices) inward, using the o(v) rule
// of Lemma 4 adapted to the path's port layout.
func pathDomainSizes(sys *core.System) []int {
	g := sys.Graph()
	n := g.NumNodes()

	var agents []int
	for v := 0; v < n; v++ {
		if sys.AgentsAt(v) > 0 {
			agents = append(agents, v)
		}
	}
	if len(agents) == 0 {
		return nil
	}

	// owner[v]: nearest agent in the direction opposite to the pointer.
	counts := make(map[int]int, len(agents))
	for v := 0; v < n; v++ {
		if sys.Visits(v) == 0 {
			continue
		}
		if sys.AgentsAt(v) > 0 {
			counts[v] += int(sys.AgentsAt(v)) // anchors own themselves
			continue
		}
		// Pointer toward lower indices means the last visitor came from
		// (and is now toward) higher indices, and vice versa; o(v) lies
		// opposite the pointer (Lemma 4). A degree-1 endpoint has only
		// one direction: its last visitor reflected off it and its owner
		// lies along the only port.
		var scanUp bool
		if g.Degree(v) == 1 {
			scanUp = g.Neighbor(v, 0) > v
		} else {
			scanUp = g.Neighbor(v, sys.Pointer(v)) < v
		}
		owner := -1
		if scanUp {
			idx := sort.SearchInts(agents, v)
			if idx < len(agents) {
				owner = agents[idx]
			}
		} else {
			idx := sort.SearchInts(agents, v)
			if idx > 0 {
				owner = agents[idx-1]
			}
		}
		if owner >= 0 {
			counts[owner]++
		}
	}

	// Order from the frontier inward: agents sorted descending; merge the
	// counts of co-located agents (counts keyed by node).
	sort.Sort(sort.Reverse(sort.IntSlice(agents)))
	sizes := make([]int, 0, len(agents))
	seen := map[int]bool{}
	for _, a := range agents {
		if seen[a] {
			continue
		}
		seen[a] = true
		sizes = append(sizes, counts[a])
	}
	return sizes
}
