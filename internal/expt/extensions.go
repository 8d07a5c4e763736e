package expt

import (
	"fmt"

	"rotorring/internal/engine"
	"rotorring/internal/stats"
)

// This file implements the paper's forward-looking material: the open
// question of §1.2 ("a characterization of the behavior of the k-agent
// rotor-router in general graphs remains an open question", with Yanovski
// et al.'s experimental observation of nearly-linear speed-up), and the
// robustness question of [7] (re-stabilization after an edge change).

// expX8 — general-graph speed-up (open question, §1.2): empirically the
// k-agent rotor-router covers general graphs close to k times faster than
// one agent, matching Yanovski et al.'s reported experiments.
func expX8() *Experiment {
	return &Experiment{
		ID:       "X8",
		PaperRef: "§1.2 open question / Yanovski et al. [27] experiments",
		Claim:    "multi-agent speed-up on general graphs is nearly linear in k",
		Run: func(cfg Config) (*Result, error) {
			topos := []engine.Topo{"torus:12x12", "grid:12x12", "hypercube:7"}
			ks := []int{2, 4, 8}
			seeds := 3
			if cfg.Scale == Full {
				topos = append(topos, "torus:24x24", "rr:4x256")
				ks = []int{2, 4, 8, 16, 32}
				seeds = 5
			}
			// Each topology's points run k = 1 first: the baseline of its
			// speed-ups.
			points, err := cellPoints(cfg, engine.SweepSpec{
				Topologies: topos,
				Agents:     append([]int{1}, ks...),
				Placements: []engine.Placement{engine.PlaceRandom},
				Pointers:   []engine.Pointer{engine.PtrRandom},
				Replicas:   seeds,
				Seed:       cfg.Seed,
			})
			if err != nil {
				return nil, err
			}

			table := &Table{
				Title:   "X8: cover-time speed-up of k agents on general graphs (random placement and pointers)",
				Headers: []string{"graph", "k", "speed-up", "speed-up/k"},
				Notes: []string{
					fmt.Sprintf("averaged over %d random initializations; speed-up = mean cover(1)/mean cover(k)", seeds),
					"the paper leaves general graphs open; [27] reports nearly-linear speed-up experimentally",
				},
			}
			var perK []float64
			for i := 0; i < len(points); i += len(ks) + 1 {
				base := points[i].Value
				for _, p := range points[i+1 : i+1+len(ks)] {
					su := base / p.Value
					perK = append(perK, su/float64(p.K))
					table.Rows = append(table.Rows, []string{
						p.Spec, fmt.Sprintf("%d", p.K),
						fmt.Sprintf("%.2f", su),
						fmt.Sprintf("%.2f", su/float64(p.K)),
					})
				}
			}
			sum, err := stats.Summarize(perK)
			if err != nil {
				return nil, err
			}
			table.Notes = append(table.Notes,
				fmt.Sprintf("speed-up/k across all points: %s", sum))
			// "Nearly linear": every normalized speed-up within a factor
			// ~3 of 1 (log-factors and topology constants absorbed).
			check := newShapeCheck("speed-up per agent (want ≈ 1)", perK, 6)
			check.OK = check.OK && sum.Min > 0.25
			return &Result{Tables: []*Table{table}, Shapes: []ShapeCheck{check}}, nil
		},
	}
}

// expX9 — robustness ([7], §1.2): after an edge is removed from a
// stabilized system, the rotor-router re-stabilizes to a new Eulerian-like
// circulation within O(D·|E|) rounds. Since the schedule subsystem landed
// this runs entirely on the sweep registry: an "edgefail" schedule deletes
// one uniformly chosen ring edge well past stabilization (the engine
// transplants pointers across the cut and re-selects kernels), and the
// "restab_time" metric measures μ of the post-fault configuration.
func expX9() *Experiment {
	return &Experiment{
		ID:       "X9",
		PaperRef: "§1.2 robustness / Bampas et al. [7]",
		Claim:    "after deleting an edge, the system re-stabilizes within O(D·|E|)",
		Run: func(cfg Config) (*Result, error) {
			ns := []int{32, 64, 128}
			agentCounts := []int{1, 4}
			replicas := 2
			if cfg.Scale == Full {
				ns = append(ns, 256)
				replicas = 3
			}
			table := &Table{
				Title:   "X9: re-stabilization after a single edge failure on ring:n (schedule edgefail, metric restab_time)",
				Headers: []string{"n", "k", "fault round", "restab μ", "period", "2D|E| (cut)", "restab/bound"},
				Notes: []string{
					"one uniformly chosen ring edge fails at t = 8n² (well past stabilization); the cut ring is a path with D = |E| = n-1",
					"re-stabilization = rounds from the fault until the configuration re-enters a limit cycle (registry metric restab_time)",
				},
			}
			worst := 0.0
			for _, n := range ns {
				fault := 8 * int64(n) * int64(n)
				sched := engine.Schedule(fmt.Sprintf("edgefail:t=%d,count=1", fault))
				rows, err := sweep(cfg, engine.SweepSpec{
					Topologies: []engine.Topo{"ring"},
					Sizes:      []int{n},
					Agents:     agentCounts,
					Placements: []engine.Placement{engine.PlaceRandom},
					Pointers:   []engine.Pointer{engine.PtrRandom},
					Metric:     engine.MetricRestab,
					Schedules:  []engine.Schedule{sched},
					Replicas:   replicas,
					Seed:       cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					bound := 2 * (n - 1) * (n - 1) // 2·D·|E| of the cut ring (path)
					ratio := r.Value / float64(bound)
					if ratio > worst {
						worst = ratio
					}
					table.Rows = append(table.Rows, []string{
						fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.K),
						fmt.Sprintf("%d", fault),
						fmt.Sprintf("%.0f", r.Value), fmt.Sprintf("%d", r.Period),
						fmt.Sprintf("%d", bound), fmt.Sprintf("%.3f", ratio),
					})
				}
			}
			return &Result{
				Tables: []*Table{table},
				Shapes: []ShapeCheck{{
					Name:   "max re-stabilization / 2D|E|",
					Spread: worst,
					Limit:  2,
					OK:     worst > 0 && worst <= 2,
				}},
			}, nil
		},
	}
}
