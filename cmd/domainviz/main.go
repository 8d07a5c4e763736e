// Command domainviz renders the evolution of agent domains on the ring as
// ASCII strips — a live reproduction of the structures in Fig. 1 of the
// paper (lazy domains and their vertex-/edge-type borders).
//
// Usage:
//
//	domainviz -n 96 -k 3 -frames 12 -every 64
//	domainviz -n 96 -k 4 -place single -pointers toward -frames 20 -bars
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/ringdom"
	"rotorring/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "domainviz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("domainviz", flag.ContinueOnError)
	n := fs.Int("n", 96, "ring size")
	k := fs.Int("k", 3, "number of agents")
	place := fs.String("place", "equal", "placement: single|equal")
	pointers := fs.String("pointers", "negative", "pointer init: zero|negative|toward")
	frames := fs.Int("frames", 10, "number of frames to render")
	every := fs.Int64("every", 0, "rounds between frames (0 = n/2)")
	warmup := fs.Int64("warmup", 0, "rounds before the first frame")
	bars := fs.Bool("bars", false, "also print domain-size bar charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *every == 0 {
		*every = int64(*n / 2)
	}

	g := graph.Ring(*n)
	var starts []int
	switch *place {
	case "single":
		starts = core.AllOnNode(0, *k)
	case "equal":
		starts = core.EquallySpaced(*n, *k)
	default:
		return fmt.Errorf("unknown placement %q", *place)
	}
	var ptr []int
	var err error
	switch *pointers {
	case "zero":
		ptr = core.PointersUniform(g, 0)
	case "negative":
		ptr, err = core.PointersNegative(g, starts)
	case "toward":
		ptr, err = core.PointersTowardNode(g, 0)
	default:
		return fmt.Errorf("unknown pointer init %q", *pointers)
	}
	if err != nil {
		return err
	}

	sys, err := core.NewSystem(g,
		core.WithAgentsAt(starts...),
		core.WithPointers(ptr))
	if err != nil {
		return err
	}
	tr, err := ringdom.NewTracker(sys)
	if err != nil {
		return err
	}
	tr.Run(*warmup)

	fmt.Fprintf(out, "ring n=%d, k=%d, placement=%s, pointers=%s\n", *n, *k, *place, *pointers)
	fmt.Fprintf(out, "legend: letters = lazy domains, * = agent, . = visited (non-lazy), # = unvisited\n")
	fmt.Fprintf(out, "borders: | vertex-type, ^^ edge-type, ~ unsettled\n\n")

	for f := 0; f < *frames; f++ {
		nodes, marks, err := viz.Strip(tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "round %-8d %s\n", sys.Round(), nodes)
		fmt.Fprintf(out, "               %s\n", marks)
		if *bars {
			p, err := ringdom.Domains(sys)
			if err != nil {
				return err
			}
			fmt.Fprint(out, viz.DomainBar(p, 40))
		}
		fmt.Fprintln(out)
		tr.Run(*every)
	}
	return nil
}
