package expt

import (
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/deploy"
	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/stats"
)

// This file reproduces the six asymptotic claims summarized in Table 1 of
// the paper (experiments E1–E6 in DESIGN.md).
//
// A note on ranges: the theorems are stated for k < n^(1/11), a regime
// unreachable at simulation scale. The follow-up work the paper cites
// ([21], ICALP 2014) proves the cover time is Θ(max(n, n²/log k)) for ALL
// k; every sweep below stays well inside the n²/log k branch, so the shapes
// are the ones Table 1 predicts.
const rangeNote = "theorem range is k < n^(1/11); sweeps rely on the extension Θ(max(n, n²/log k)) of [21]"

// rotorCoverTime builds a ring rotor-router and measures its cover time.
func rotorCoverTime(n, k int, placement func(n, k int) []int,
	pointers func(g *graph.Graph, starts []int) ([]int, error)) (float64, error) {
	g := graph.Ring(n)
	starts := placement(n, k)
	ptr, err := pointers(g, starts)
	if err != nil {
		return 0, err
	}
	sys, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
	if err != nil {
		return 0, err
	}
	cover, err := sys.RunUntilCovered(8 * int64(n) * int64(n))
	if err != nil {
		return 0, err
	}
	return float64(cover), nil
}

func worstPlacement(n, k int) []int { return core.AllOnNode(0, k) }
func bestPlacement(n, k int) []int  { return core.EquallySpaced(n, k) }

func towardStartPointers(g *graph.Graph, _ []int) ([]int, error) {
	return core.PointersTowardNode(g, 0)
}

func negativePointers(g *graph.Graph, starts []int) ([]int, error) {
	return core.PointersNegative(g, starts)
}

// expE1 — Table 1, rotor-router row, worst placement (Theorems 1 and 2):
// all k agents on one node with pointers toward it cover in Θ(n²/log k).
func expE1() *Experiment {
	return &Experiment{
		ID:       "E1",
		PaperRef: "Table 1 / Theorems 1, 2",
		Claim:    "k-agent rotor-router, worst-case start: cover time Θ(n²/log k)",
		Run: func(cfg Config) (*Result, error) {
			ns, ks, _ := sweepSizes(cfg.Scale)
			// Deterministic cover sweep: runs as a registered
			// (process, metric) pair on the sweep engine itself.
			points, err := registrySweep(cfg, ns, ks,
				engine.ProcRotor, engine.MetricCover, engine.PlaceSingle, engine.PtrToward)
			if err != nil {
				return nil, err
			}
			table, shape := coverSweepTable(
				"E1: rotor-router cover time, worst-case placement (all agents on node 0, pointers toward start)",
				points,
				func(n, k int) float64 { return float64(n) * float64(n) / stats.Harmonic(k) },
				"cover·H_k/n² (rotor worst)", 4, rangeNote)

			// Theorem 2: EVERY initialization is O(n²/log k) — search over
			// random initializations and confirm none beats the
			// constructed worst case.
			anyTable, anyShape, err := anyInitTable(cfg)
			if err != nil {
				return nil, err
			}
			return &Result{
				Tables: []*Table{table, anyTable},
				Shapes: []ShapeCheck{shape, anyShape},
			}, nil
		},
	}
}

// expE2 — Table 1, rotor-router row, best placement (Theorems 3 and 4):
// equally spaced agents cover in Θ(n²/k²) even against adversarial
// (negative) pointers.
func expE2() *Experiment {
	return &Experiment{
		ID:       "E2",
		PaperRef: "Table 1 / Theorems 3, 4",
		Claim:    "k-agent rotor-router, best-case start: cover time Θ(n²/k²)",
		Run: func(cfg Config) (*Result, error) {
			ns, ks, _ := sweepSizes(cfg.Scale)
			points, err := registrySweep(cfg, ns, ks,
				engine.ProcRotor, engine.MetricCover, engine.PlaceEqual, engine.PtrNegative)
			if err != nil {
				return nil, err
			}
			table, shape := coverSweepTable(
				"E2: rotor-router cover time, best-case placement (equal spacing, adversarial negative pointers)",
				points,
				func(n, k int) float64 { r := float64(n) / float64(k); return r * r },
				"cover·k²/n² (rotor best)", 4,
				"lower bound Ω((n/k)²) realized by the negative pointer arrangement of Theorem 4")

			lbTable, lbShape, err := theorem4Table(cfg)
			if err != nil {
				return nil, err
			}
			return &Result{
				Tables: []*Table{table, lbTable},
				Shapes: []ShapeCheck{shape, lbShape},
			}, nil
		},
	}
}

// theorem4Table runs the paper's explicit Ω((n/k)²) lower-bound
// construction: spread the agents by delayed releases so that a window of
// ~n/(10k) unexplored nodes survives around a remote vertex behind a
// reflecting pointer barrier, then release everyone and measure how long
// the window takes to consume.
func theorem4Table(cfg Config) (*Table, ShapeCheck, error) {
	type instance struct{ n, k int }
	instances := []instance{{160 * 16, 4}}
	if cfg.Scale == Full {
		instances = append(instances, instance{160 * 36, 6}, instance{320 * 16, 4})
	}
	table := &Table{
		Title:   "E2b (Theorem 4 construction): remaining cover time after the adversarial spread",
		Headers: []string{"n", "k", "spread rounds", "remaining cover", "(n/k)²", "ratio"},
		Notes:   []string{"agents parked n/(10k) apart around a remote vertex; a ~n/(10k) window stays unexplored behind a reflecting barrier"},
	}
	var ratios []float64
	for i, inst := range instances {
		rng := seededRng(cfg.Seed+uint64(i), inst.n, inst.k)
		starts := core.RandomPositions(inst.n, inst.k, rng)
		res, err := deploy.Theorem4Spread(inst.n, inst.k, starts)
		if err != nil {
			return nil, ShapeCheck{}, err
		}
		if !res.WindowIntact {
			return nil, ShapeCheck{}, fmt.Errorf("theorem 4 window eroded at n=%d k=%d", inst.n, inst.k)
		}
		sys := res.Controller.System()
		res.Controller.ThawAll()
		already := sys.Round()
		cover, err := sys.RunUntilCovered(already + 64*int64(inst.n)*int64(inst.n))
		if err != nil {
			return nil, ShapeCheck{}, err
		}
		remaining := float64(cover - already)
		pred := float64(inst.n) / float64(inst.k)
		pred *= pred
		ratios = append(ratios, remaining/pred)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", inst.n), fmt.Sprintf("%d", inst.k),
			fmt.Sprintf("%d", res.SpreadRounds),
			fmt.Sprintf("%.0f", remaining),
			fmt.Sprintf("%.0f", pred),
			fmt.Sprintf("%.4f", remaining/pred),
		})
	}
	min := ratios[0]
	for _, r := range ratios {
		if r < min {
			min = r
		}
	}
	return table, ShapeCheck{
		Name:   "Theorem 4 remaining cover / (n/k)²",
		Spread: min,
		Limit:  1,
		OK:     min >= 1.0/800,
	}, nil
}

// anyInitTable supports Theorem 2: over many random initializations
// (placements and pointer arrangements), the cover time never exceeds the
// constructed worst case by more than its own constant.
func anyInitTable(cfg Config) (*Table, ShapeCheck, error) {
	n, k, inits := 512, 8, 40
	if cfg.Scale == Full {
		n, k, inits = 2048, 16, 80
	}
	g := graph.Ring(n)
	worst, err := rotorCoverTime(n, k, worstPlacement, towardStartPointers)
	if err != nil {
		return nil, ShapeCheck{}, err
	}

	maxRandom := 0.0
	var argNote string
	for i := 0; i < inits; i++ {
		rng := seededRng(cfg.Seed+uint64(i)*61, n, k)
		starts := core.RandomPositions(n, k, rng)
		ptr := core.PointersRandom(g, rng)
		sys, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
		if err != nil {
			return nil, ShapeCheck{}, err
		}
		cover, err := sys.RunUntilCovered(8 * int64(n) * int64(n))
		if err != nil {
			return nil, ShapeCheck{}, err
		}
		if c := float64(cover); c > maxRandom {
			maxRandom = c
			argNote = fmt.Sprintf("worst random init found at trial %d", i)
		}
	}
	table := &Table{
		Title:   fmt.Sprintf("E1b (Theorem 2): random-initialization search, n=%d, k=%d, %d inits", n, k, inits),
		Headers: []string{"initialization", "cover time", "vs constructed worst"},
		Rows: [][]string{
			{"constructed worst case", fmt.Sprintf("%.0f", worst), "1.000"},
			{"max over random inits", fmt.Sprintf("%.0f", maxRandom), fmt.Sprintf("%.3f", maxRandom/worst)},
		},
		Notes: []string{argNote, "Theorem 2: every initialization is O(n²/log k)"},
	}
	ratio := maxRandom / worst
	return table, ShapeCheck{
		Name:   "max random-init cover / constructed worst",
		Spread: ratio,
		Limit:  1.5,
		OK:     ratio <= 1.5,
	}, nil
}

// walkCoverMean estimates the expected cover time of k walks. The
// annotation includes the 95th percentile: Lemma 16's high-probability
// bound implies a light upper tail (p95 within a small factor of the mean).
func walkCoverMean(n, k, trials int, seed uint64, placement func(n, k int) []int) (float64, string, error) {
	g := graph.Ring(n)
	times, err := randwalk.CoverTimes(g, placement(n, k), trials, seed, 64*int64(n)*int64(n))
	if err != nil {
		return 0, "", err
	}
	fs := stats.Floats(times)
	mean := stats.Mean(fs)
	return mean, fmt.Sprintf("±%.0f (p95/mean %.2f)", stats.StdErr(fs), stats.Quantile(fs, 0.95)/mean), nil
}

// expE3 — Table 1, random-walk row, worst placement ([4]): k walks from one
// node cover in expectation Θ(n²/log k).
func expE3() *Experiment {
	return &Experiment{
		ID:       "E3",
		PaperRef: "Table 1 / Alon et al. [4]",
		Claim:    "k random walks, worst-case start: E[cover] = Θ(n²/log k)",
		Run: func(cfg Config) (*Result, error) {
			ns, ks, trials := sweepSizes(cfg.Scale)
			points, err := runSweep(cfg, ns, ks, func(n, k int) (float64, string, error) {
				return walkCoverMean(n, k, trials, cfg.Seed+uint64(n)*31+uint64(k), worstPlacement)
			})
			if err != nil {
				return nil, err
			}
			table, shape := coverSweepTable(
				"E3: parallel random-walk expected cover time, worst-case placement (all walkers on node 0)",
				points,
				func(n, k int) float64 { return float64(n) * float64(n) / stats.Harmonic(k) },
				"E[cover]·H_k/n² (walk worst)", 4,
				fmt.Sprintf("%d trials per point; measured column shows mean±stderr", trials))
			return &Result{Tables: []*Table{table}, Shapes: []ShapeCheck{shape}}, nil
		},
	}
}

// expE4 — Table 1, random-walk row, best placement (Theorem 5): equally
// spaced walks cover in expectation Θ((n/k)²·log²k).
func expE4() *Experiment {
	return &Experiment{
		ID:       "E4",
		PaperRef: "Table 1 / Theorem 5",
		Claim:    "k random walks, best-case start: E[cover] = Θ((n/k)²·log²k)",
		Run: func(cfg Config) (*Result, error) {
			ns, ks, trials := sweepSizes(cfg.Scale)
			points, err := runSweep(cfg, ns, ks, func(n, k int) (float64, string, error) {
				return walkCoverMean(n, k, trials, cfg.Seed+uint64(n)*17+uint64(k), bestPlacement)
			})
			if err != nil {
				return nil, err
			}
			table, shape := coverSweepTable(
				"E4: parallel random-walk expected cover time, best-case placement (equal spacing)",
				points,
				func(n, k int) float64 {
					r := float64(n) / float64(k)
					h := stats.Harmonic(k)
					return r * r * h * h
				},
				"E[cover]·k²/(n²·H_k²) (walk best)", 4,
				fmt.Sprintf("%d trials per point; measured column shows mean±stderr", trials))
			return &Result{Tables: []*Table{table}, Shapes: []ShapeCheck{shape}}, nil
		},
	}
}

// expE5 — Table 1, return-time column (Theorem 6): once stabilized, every
// node is visited every Θ(n/k) rounds regardless of initialization; k
// random walks revisit every node every n/k rounds in expectation.
func expE5() *Experiment {
	return &Experiment{
		ID:       "E5",
		PaperRef: "Table 1 / Theorem 6",
		Claim:    "rotor-router return time Θ(n/k) for any initialization; walk mean gap n/k",
		Run: func(cfg Config) (*Result, error) {
			ns, ks := returnSweepSizes(cfg.Scale)
			best, err := registrySweep(cfg, ns, ks,
				engine.ProcRotor, engine.MetricReturn, engine.PlaceEqual, engine.PtrNegative)
			if err != nil {
				return nil, err
			}
			worst, err := registrySweep(cfg, ns, ks,
				engine.ProcRotor, engine.MetricReturn, engine.PlaceSingle, engine.PtrToward)
			if err != nil {
				return nil, err
			}
			nk := func(n, k int) float64 { return float64(n) / float64(k) }
			tBest, sBest := coverSweepTable(
				"E5a: rotor-router return time, equal-spacing initialization",
				best, nk, "return·k/n (rotor, best init)", 4)
			tWorst, sWorst := coverSweepTable(
				"E5b: rotor-router return time, all-on-one-node initialization",
				worst, nk, "return·k/n (rotor, worst init)", 4,
				"Theorem 6: the limit behavior forgets the initialization")

			// Random-walk mean inter-visit gap for comparison. The window
			// must dominate the (n/k)² diffusive scale, or nodes between
			// two walkers can stay unvisited for the whole observation.
			walkPoints, err := runSweep(cfg, ns, ks, func(n, k int) (float64, string, error) {
				g := graph.Ring(n)
				w, err := randwalk.New(g, bestPlacement(n, k), seededRng(cfg.Seed, n, k))
				if err != nil {
					return 0, "", err
				}
				span := int64(n / k)
				window := 50*span*span + int64(200*n)
				gs := w.MeasureGaps(int64(10*n), window)
				return gs.MeanGap, fmt.Sprintf(" (max gap %d)", gs.MaxGap), nil
			})
			if err != nil {
				return nil, err
			}
			tWalk, sWalk := coverSweepTable(
				"E5c: parallel random-walk mean inter-visit gap (expectation n/k)",
				walkPoints, nk, "mean-gap·k/n (walks)", 1.5)

			return &Result{
				Tables: []*Table{tBest, tWorst, tWalk},
				Shapes: []ShapeCheck{sBest, sWorst, sWalk},
			}, nil
		},
	}
}

// expE6 — the speed-up summary of §1.1: with k agents the rotor-router
// accelerates between Θ(log k) (worst start) and Θ(k²) (best start); the
// walks between Θ(log k) and Θ(k²/log²k); return time accelerates Θ(k) for
// both.
func expE6() *Experiment {
	return &Experiment{
		ID:       "E6",
		PaperRef: "Table 1 / §1.1 speed-up discussion",
		Claim:    "speed-ups vs k=1: rotor log k..k²; walks log k..k²/log²k; return time k",
		Run:      runE6,
	}
}

func runE6(cfg Config) (*Result, error) {
	n := 512
	ks := []int{2, 4, 8, 16}
	trials := 12
	if cfg.Scale == Full {
		n = 2048
		ks = []int{2, 4, 8, 16, 32, 64}
		trials = 32
	}

	// Baselines at k = 1.
	baseRotor, err := rotorCoverTime(n, 1, worstPlacement, towardStartPointers)
	if err != nil {
		return nil, err
	}
	baseWalk, _, err := walkCoverMean(n, 1, trials, cfg.Seed^0xabcd, worstPlacement)
	if err != nil {
		return nil, err
	}
	baseReturnSys, err := core.NewSystem(graph.Ring(n),
		core.WithAgentsAt(0),
		core.WithPointers(core.PointersUniform(graph.Ring(n), 0)))
	if err != nil {
		return nil, err
	}
	baseReturnStats, err := core.MeasureReturnTime(baseReturnSys, 64*int64(n)*int64(n))
	if err != nil {
		return nil, err
	}
	baseReturn := float64(baseReturnStats.ReturnTime)

	table := &Table{
		Title: fmt.Sprintf("E6: speed-up over a single agent on the %d-node ring", n),
		Headers: []string{"k", "rotor-worst", "H_k", "rotor-best", "k²",
			"walk-worst", "walk-best", "k²/H_k²", "return", "k"},
		Notes: []string{
			"each speed-up column is time(k=1)/time(k); the paper predicts the column to its right",
			rangeNote,
		},
	}

	var worstRatios, bestRatios, returnRatios []float64
	for _, k := range ks {
		rw, err := rotorCoverTime(n, k, worstPlacement, towardStartPointers)
		if err != nil {
			return nil, err
		}
		rb, err := rotorCoverTime(n, k, bestPlacement, negativePointers)
		if err != nil {
			return nil, err
		}
		ww, _, err := walkCoverMean(n, k, trials, cfg.Seed+uint64(k)*7, worstPlacement)
		if err != nil {
			return nil, err
		}
		wb, _, err := walkCoverMean(n, k, trials, cfg.Seed+uint64(k)*13, bestPlacement)
		if err != nil {
			return nil, err
		}
		g := graph.Ring(n)
		starts := core.EquallySpaced(n, k)
		ptr, err := core.PointersNegative(g, starts)
		if err != nil {
			return nil, err
		}
		retSys, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
		if err != nil {
			return nil, err
		}
		rs, err := core.MeasureReturnTime(retSys, 64*int64(n)*int64(n))
		if err != nil {
			return nil, err
		}

		hk := stats.Harmonic(k)
		suWorst := baseRotor / rw
		suBest := baseRotor / rb
		suWalkWorst := baseWalk / ww
		suWalkBest := baseWalk / wb
		suReturn := baseReturn / float64(rs.ReturnTime)

		worstRatios = append(worstRatios, suWorst/hk)
		bestRatios = append(bestRatios, suBest/float64(k*k))
		returnRatios = append(returnRatios, suReturn/float64(k))

		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", suWorst),
			fmt.Sprintf("%.2f", hk),
			fmt.Sprintf("%.2f", suBest),
			fmt.Sprintf("%d", k*k),
			fmt.Sprintf("%.2f", suWalkWorst),
			fmt.Sprintf("%.2f", suWalkBest),
			fmt.Sprintf("%.2f", float64(k*k)/(hk*hk)),
			fmt.Sprintf("%.2f", suReturn),
			fmt.Sprintf("%d", k),
		})
	}
	return &Result{
		Tables: []*Table{table},
		Shapes: []ShapeCheck{
			newShapeCheck("rotor worst speed-up / H_k", worstRatios, 4),
			newShapeCheck("rotor best speed-up / k²", bestRatios, 4),
			newShapeCheck("return speed-up / k", returnRatios, 4),
		},
	}, nil
}
