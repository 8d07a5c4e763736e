package expt

import (
	"fmt"
	"math"

	"rotorring/internal/continuum"
	"rotorring/internal/core"
	"rotorring/internal/deploy"
	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/internal/remote"
	"rotorring/internal/ringdom"
	"rotorring/internal/stats"
	"rotorring/internal/tokengame"
	"rotorring/internal/xrand"
)

// expX1 — Lemma 12: after stabilization, the sizes of adjacent lazy domains
// differ by at most 10, from any initialization with large enough domains.
func expX1() *Experiment {
	return &Experiment{
		ID:       "X1",
		PaperRef: "Lemma 12 / §2.2",
		Claim:    "adjacent lazy domains eventually differ by <= 10 nodes",
		Run: func(cfg Config) (*Result, error) {
			type config struct {
				n, k int
				init string
			}
			configs := []config{
				{128, 4, "worst"}, {256, 4, "worst"}, {256, 8, "equal"},
			}
			if cfg.Scale == Full {
				configs = append(configs, config{512, 8, "worst"}, config{1024, 16, "equal"})
			}
			table := &Table{
				Title:   "X1: maximum adjacent lazy-domain difference after stabilization",
				Headers: []string{"n", "k", "init", "samples", "max adjacent diff", "bound"},
			}
			worstDiff := 0
			for _, c := range configs {
				g := graph.Ring(c.n)
				var starts []int
				var ptr []int
				var err error
				if c.init == "worst" {
					starts = core.AllOnNode(0, c.k)
					ptr, err = core.PointersTowardNode(g, 0)
				} else {
					starts = core.EquallySpaced(c.n, c.k)
					ptr, err = core.PointersNegative(g, starts)
				}
				if err != nil {
					return nil, err
				}
				sys, err := core.NewSystem(g,
					core.WithAgentsAt(starts...),
					core.WithPointers(ptr))
				if err != nil {
					return nil, err
				}
				tr, err := ringdom.NewTracker(sys)
				if err != nil {
					return nil, err
				}
				tr.Run(int64(c.n) * int64(c.n)) // past worst-case stabilization

				const samples = 30
				maxDiff := 0
				for s := 0; s < samples; s++ {
					tr.Run(int64(c.n / 2))
					lp, err := tr.LazyDomains()
					if err != nil {
						return nil, err
					}
					if d := lp.MaxAdjacentDiff(); d > maxDiff {
						maxDiff = d
					}
				}
				if maxDiff > worstDiff {
					worstDiff = maxDiff
				}
				table.Rows = append(table.Rows, []string{
					fmt.Sprintf("%d", c.n), fmt.Sprintf("%d", c.k), c.init,
					fmt.Sprintf("%d", samples), fmt.Sprintf("%d", maxDiff), "10",
				})
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{{
					Name:   "max adjacent lazy-domain difference",
					Spread: float64(worstDiff),
					Limit:  10,
					OK:     worstDiff <= 10,
				}},
			}, nil
		},
	}
}

// expX2 — Lemma 13: the limit profile sequence and its bounds.
func expX2() *Experiment {
	return &Experiment{
		ID:       "X2",
		PaperRef: "Lemma 13",
		Claim:    "profile a_i exists with Σa_i=1, a_1 = Θ(1/H_k), a_i >= a_1/i",
		Run: func(cfg Config) (*Result, error) {
			ks := []int{4, 8, 16, 64, 256}
			if cfg.Scale == Full {
				ks = append(ks, 1024, 4096)
			}
			table := &Table{
				Title:   "X2: Lemma 13 limit profile",
				Headers: []string{"k", "a_1", "1/H_k", "a_1·H_k", "c²/H_k", "Σa_i", "recursion residual"},
				Notes:   []string{"Lemma 13(5): 1/(4(H_k+1)) <= a_1 <= 1/H_k, i.e. a_1·H_k ∈ (~1/4, 1]"},
			}
			var normalized []float64
			for _, k := range ks {
				p, err := continuum.LimitProfile(k)
				if err != nil {
					return nil, err
				}
				hk := stats.Harmonic(k)
				normalized = append(normalized, p.A[1]*hk)
				table.Rows = append(table.Rows, []string{
					fmt.Sprintf("%d", k),
					fmt.Sprintf("%.5f", p.A[1]),
					fmt.Sprintf("%.5f", 1/hk),
					fmt.Sprintf("%.3f", p.A[1]*hk),
					fmt.Sprintf("%.3f", p.C*p.C/hk),
					fmt.Sprintf("%.6f", p.Sum()),
					fmt.Sprintf("%.2e", p.RecursionResidual()),
				})
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{newShapeCheck("a_1·H_k across k", normalized, 4)},
			}, nil
		},
	}
}

// expX3 — §2.3: the continuous-time model grows explored mass as √t before
// coverage and equalizes domains after coverage.
func expX3() *Experiment {
	return &Experiment{
		ID:       "X3",
		PaperRef: "§2.3 continuous-time approximation",
		Claim:    "ν grows as √t pre-coverage (self-similar a_i profile); equalizes post-coverage",
		Run: func(cfg Config) (*Result, error) {
			k := 8
			if cfg.Scale == Full {
				k = 32
			}
			p, err := continuum.LimitProfile(k)
			if err != nil {
				return nil, err
			}
			const scale = 1000.0
			sizes := make([]float64, k)
			for i := range sizes {
				sizes[i] = p.A[i+1] * scale
			}
			m, err := continuum.NewModel(sizes, continuum.BoundaryOneFrontier)
			if err != nil {
				return nil, err
			}
			table := &Table{
				Title:   fmt.Sprintf("X3: ODE model, one-frontier regime (k=%d, S_0=%.0f)", k, scale),
				Headers: []string{"t", "total ν", "closed form √(t/a_1+S₀²)", "ratio"},
			}
			var ts, totals []float64
			horizon := 1e5
			for step := 0; step < 8; step++ {
				if err := m.Advance(horizon); err != nil {
					return nil, err
				}
				horizon *= 2
				want := math.Sqrt(m.Time()/p.A[1] + scale*scale)
				ts = append(ts, m.Time())
				totals = append(totals, m.Total())
				table.Rows = append(table.Rows, []string{
					fmt.Sprintf("%.3g", m.Time()),
					fmt.Sprintf("%.1f", m.Total()),
					fmt.Sprintf("%.1f", want),
					fmt.Sprintf("%.4f", m.Total()/want),
				})
			}
			fit, err := stats.LogLogSlope(ts[4:], totals[4:])
			if err != nil {
				return nil, err
			}

			// Post-coverage equalization.
			m2, err := continuum.NewModel([]float64{50, 10, 30, 20, 40}, continuum.BoundaryCyclic)
			if err != nil {
				return nil, err
			}
			if err := m2.Advance(1e6); err != nil {
				return nil, err
			}
			eq := stats.RatioSpread(m2.Sizes())
			table.Notes = append(table.Notes,
				fmt.Sprintf("asymptotic growth exponent %.4f (want 0.5)", fit.Slope),
				fmt.Sprintf("cyclic regime from sizes [50 10 30 20 40]: max/min after relaxation %.4f", eq))

			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{
					{Name: "ODE growth exponent vs 0.5", Spread: fit.Slope, Limit: 0.55, OK: math.Abs(fit.Slope-0.5) < 0.05},
					{Name: "cyclic equalization max/min", Spread: eq, Limit: 1.05, OK: eq < 1.05},
				},
			}, nil
		},
	}
}

// expX4 — Lemma 8's token game: the minimum stack never falls below
// η − 5k + 5 under any legal play.
func expX4() *Experiment {
	return &Experiment{
		ID:       "X4",
		PaperRef: "Lemma 8 claim (appendix)",
		Claim:    "token game: min stack >= η − 5k + 5 under any legal play",
		Run: func(cfg Config) (*Result, error) {
			ks := []int{4, 8, 16, 32}
			moves := 200_000
			if cfg.Scale == Full {
				ks = append(ks, 64, 128)
				moves = 1_000_000
			}
			table := &Table{
				Title:   "X4: token-game minimum stack heights after adversarial play",
				Headers: []string{"k", "η", "strategy", "moves", "min stack", "bound η−5k+5"},
			}
			ok := true
			rng := xrand.New(cfg.Seed)
			for _, k := range ks {
				eta := 10 * k
				strategies := map[string]tokengame.Player{
					"random":  &tokengame.RandomPlayer{Rng: rng.Split()},
					"greedy":  tokengame.GreedyAttacker{},
					"cascade": tokengame.CascadeAttacker{},
				}
				for _, name := range []string{"random", "greedy", "cascade"} {
					g, err := tokengame.New(k, eta)
					if err != nil {
						return nil, err
					}
					played, err := tokengame.Play(g, strategies[name], moves)
					if err != nil {
						ok = false
					}
					table.Rows = append(table.Rows, []string{
						fmt.Sprintf("%d", k), fmt.Sprintf("%d", eta), name,
						fmt.Sprintf("%d", played),
						fmt.Sprintf("%d", g.Min()),
						fmt.Sprintf("%d", g.LowerBound()),
					})
					if g.Min() < g.LowerBound() {
						ok = false
					}
				}
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{{Name: "token-game invariant", Spread: 1, Limit: 1, OK: ok}},
			}, nil
		},
	}
}

// expX5 — Lemma 15: at least 0.8n − o(n) vertices are remote for any
// placement.
func expX5() *Experiment {
	return &Experiment{
		ID:       "X5",
		PaperRef: "Lemma 15 / Definition 2",
		Claim:    "every placement leaves >= 0.8n − o(n) remote vertices",
		Run: func(cfg Config) (*Result, error) {
			n, k := 4000, 40
			if cfg.Scale == Full {
				n, k = 20000, 140
			}
			rng := xrand.New(cfg.Seed + 99)
			placements := []struct {
				name   string
				starts []int
			}{
				{"all-on-one", core.AllOnNode(0, k)},
				{"equally-spaced", core.EquallySpaced(n, k)},
				{"uniform-random", core.RandomPositions(n, k, rng)},
				{"two-clusters", append(core.AllOnNode(0, k/2), core.AllOnNode(n/2, k-k/2)...)},
			}
			table := &Table{
				Title:   fmt.Sprintf("X5: remote-vertex census (n=%d, k=%d)", n, k),
				Headers: []string{"placement", "remote vertices", "fraction", "Lemma 15 bound"},
			}
			minFrac := 1.0
			for _, pl := range placements {
				p, err := remote.NewPlacement(n, pl.starts)
				if err != nil {
					return nil, err
				}
				count := p.CountRemote()
				frac := float64(count) / float64(n)
				if frac < minFrac {
					minFrac = frac
				}
				table.Rows = append(table.Rows, []string{
					pl.name, fmt.Sprintf("%d", count), fmt.Sprintf("%.4f", frac), "0.8 − o(1)",
				})
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{{
					Name:   "min remote fraction across placements",
					Spread: minFrac,
					Limit:  1,
					OK:     minFrac >= 0.8,
				}},
			}, nil
		},
	}
}

// expX6 — Yanovski et al. [27] / Bampas et al. [6]: the single-agent
// rotor-router locks into the Eulerian circulation within Θ(D·|E|) rounds.
// It runs as one registry sweep: on an unscheduled cell the "restab_time"
// metric measures μ of the initial configuration and the period λ.
func expX6() *Experiment {
	return &Experiment{
		ID:       "X6",
		PaperRef: "§1.2 / [27], [6]",
		Claim:    "single-agent lock-in to the Eulerian cycle within Θ(D·|E|)",
		Run: func(cfg Config) (*Result, error) {
			topos := []engine.Topo{"ring:32", "path:24", "grid:6x6", "complete:10",
				"star:16", "hypercube:4", "btree:4", "lollipop:6x8"}
			if cfg.Scale == Full {
				topos = append(topos, "ring:256", "grid:16x16", "hypercube:7")
			}
			trials := 4
			rows, err := sweep(cfg, engine.SweepSpec{
				Topologies: topos,
				Agents:     []int{1},
				Placements: []engine.Placement{engine.PlaceRandom},
				Pointers:   []engine.Pointer{engine.PtrRandom},
				Metric:     engine.MetricRestab,
				Replicas:   trials,
				Seed:       cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			table := &Table{
				Title:   "X6: single-agent lock-in round μ vs the 2D|E| bound (metric restab_time)",
				Headers: []string{"graph", "D", "|E|", "max μ", "2D|E|", "μ/(2D|E|)", "period", "Eulerian"},
			}
			worstRatio := 0.0
			for i, topo := range topos {
				g, err := engine.BuildTopo(topo, 0, 0) // every X6 family is unseeded
				if err != nil {
					return nil, err
				}
				d, m := g.Diameter(), g.NumEdges()
				bound := int64(2 * d * m)
				var maxMu, period int64
				eulerian := true
				// Each topology is one cell, its trials adjacent rows. The
				// agent crosses one arc a round and, its pointers turning
				// full circles in the limit, every arc at least once a
				// period: the period is 2|E| exactly when each arc is
				// crossed once, the Eulerian cycle.
				for _, r := range rows[i*trials : (i+1)*trials] {
					maxMu = max(maxMu, int64(r.Value))
					period = r.Period
					eulerian = eulerian && r.Period == int64(2*m)
				}
				ratio := float64(maxMu) / float64(bound)
				worstRatio = max(worstRatio, ratio)
				table.Rows = append(table.Rows, []string{
					string(topo), fmt.Sprintf("%d", d), fmt.Sprintf("%d", m),
					fmt.Sprintf("%d", maxMu), fmt.Sprintf("%d", bound),
					fmt.Sprintf("%.3f", ratio),
					fmt.Sprintf("%d", period),
					fmt.Sprintf("%v", eulerian),
				})
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{{
					Name:   "max μ/(2D|E|) across graphs",
					Spread: worstRatio,
					Limit:  2,
					OK:     worstRatio <= 2,
				}},
			}, nil
		},
	}
}

// expX7 — Lemma 1 and the slow-down lemma (Lemma 3): delays never increase
// visit counts, and a delayed deployment brackets the undelayed cover time.
func expX7() *Experiment {
	return &Experiment{
		ID:       "X7",
		PaperRef: "Lemmas 1, 3 / §2.1",
		Claim:    "delays only slow coverage; τ <= C(R[k]) <= T for any delayed deployment",
		Run: func(cfg Config) (*Result, error) {
			// Part 1: dominance under random delays.
			n, k, rounds := 96, 5, 3000
			if cfg.Scale == Full {
				n, k, rounds = 256, 8, 20000
			}
			rng := xrand.New(cfg.Seed + 3)
			g := graph.Ring(n)
			starts := core.RandomPositions(n, k, rng)
			ptr := core.PointersRandom(g, rng)
			undelayed, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
			if err != nil {
				return nil, err
			}
			delayed, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
			if err != nil {
				return nil, err
			}
			held := make([]int64, n)
			violations := 0
			for r := 0; r < rounds; r++ {
				undelayed.Step()
				for v := range held {
					held[v] = 0
				}
				for _, v := range delayed.Occupied() {
					if rng.Bool() {
						held[v] = int64(rng.Intn(int(delayed.AgentsAt(v)) + 1))
					}
				}
				delayed.StepHeld(held)
				for v := 0; v < n; v++ {
					if delayed.Visits(v) > undelayed.Visits(v) {
						violations++
					}
				}
			}

			// Part 2: slow-down bracket via the Theorem 1 deployment.
			pn, pk := 160, 4
			if cfg.Scale == Full {
				pn, pk = 384, 6
			}
			dres, err := deploy.Theorem1Deployment(pn, pk, deploy.Theorem1Options{})
			if err != nil {
				return nil, err
			}
			pg := graph.Path(pn)
			pptr, err := core.PointersTowardNode(pg, 0)
			if err != nil {
				return nil, err
			}
			usys, err := core.NewSystem(pg,
				core.WithAgentsAt(core.AllOnNode(0, pk)...),
				core.WithPointers(pptr))
			if err != nil {
				return nil, err
			}
			cover, err := usys.RunUntilCovered(64 * int64(pn) * int64(pn))
			if err != nil {
				return nil, err
			}
			bracketOK := dres.FullyActiveRounds <= cover && cover <= dres.CoverRounds

			// Part 3: the same law through the registry — the schedule
			// subsystem's "delay" family on the sweep engine. Job seeds do
			// not depend on the schedule, so each (configuration, replica)
			// pair starts identically under "none" and "delay:p=0.5" and
			// the delayed cover time must dominate the pristine one.
			sns, sks, sreps := []int{48, 96}, []int{2, 4}, 2
			if cfg.Scale == Full {
				sns, sks, sreps = []int{96, 192}, []int{2, 4, 8}, 3
			}
			rows, err := sweep(cfg, engine.SweepSpec{
				Topologies: []engine.Topo{"ring"},
				Sizes:      sns,
				Agents:     sks,
				Placements: []engine.Placement{engine.PlaceRandom},
				Pointers:   []engine.Pointer{engine.PtrRandom},
				Schedules:  []engine.Schedule{"none", "delay:p=0.5"},
				Replicas:   sreps,
				Seed:       cfg.Seed + 11,
			})
			if err != nil {
				return nil, err
			}
			pristine := map[string]float64{} // (n,k,replica) -> cover
			pairKey := func(n, k, rep int) string { return fmt.Sprintf("%d/%d/%d", n, k, rep) }
			for _, r := range rows {
				if r.Cell.Schedule == "" {
					pristine[pairKey(r.N, r.K, r.Replica)] = r.Value
				}
			}
			schedPairs, schedViolations := 0, 0
			for _, r := range rows {
				if r.Cell.Schedule == "" {
					continue
				}
				schedPairs++
				if r.Value < pristine[pairKey(r.N, r.K, r.Replica)] {
					schedViolations++
				}
			}

			table := &Table{
				Title:   "X7: delayed-deployment laws",
				Headers: []string{"check", "setup", "result"},
				Rows: [][]string{
					{"Lemma 1 dominance", fmt.Sprintf("ring n=%d k=%d, %d random-delay rounds", n, k, rounds),
						fmt.Sprintf("%d violations", violations)},
					{"Lemma 3 bracket", fmt.Sprintf("path n=%d k=%d (Theorem 1 deployment)", pn, pk),
						fmt.Sprintf("τ=%d <= C=%d <= T=%d : %v",
							dres.FullyActiveRounds, cover, dres.CoverRounds, bracketOK)},
					{"registry delay schedule", fmt.Sprintf("ring n∈%v k∈%v, delay:p=0.5 vs none", sns, sks),
						fmt.Sprintf("%d/%d pairs slowed or equal", schedPairs-schedViolations, schedPairs)},
				},
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{
					{Name: "Lemma 1 dominance violations", Spread: float64(violations), Limit: 0.5, OK: violations == 0},
					{Name: "Lemma 3 slow-down bracket", Spread: 1, Limit: 1, OK: bracketOK},
					{Name: "delay schedule only slows coverage", Spread: float64(schedViolations), Limit: 0.5,
						OK: schedPairs > 0 && schedViolations == 0},
				},
			}, nil
		},
	}
}
