// Command perfbench is rotorring's layered benchmark. It drives the sweep
// library (Engine.Run; and traced, engine.Expand, JobRunner, RowBytes and
// the JSONL sink) with sweep specs generated from a seed, checks every
// delivered row against the library's reference bytes, and prints one JSON
// line last: the end-to-end metrics, or with -trace 1 the per-layer
// breakdown, for which a traced run also drives an in-process rotord
// (service.Open plus its Handler on a loopback listener) and cluster worker
// (cluster.NewWorker).
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // length of the timed window
	trace    bool
	workdir  string // spools and the span file live under it
	spans    string // span file a traced run writes
	listing  string // BENCHMARK.json: the per-layer names and units
	// workers is the engine pool size and the number of cluster workers:
	// half the host's processors, so the load leaves room for the runtime's
	// own threads, the rotord client and the rest of a shared host.
	workers int
	tiny    bool      // test scale: the smallest specs of every workload
	corrupt bool      // test hook: flip one delivered byte before it is checked
	log     io.Writer // progress notes and the span summary
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: generates the sweep specs and their order")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for spools and the span file <workload>-<seed>.spans.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want -seconds >= 1, -trace 0 or 1, and no other arguments")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workdir:  *workdir,
		spans:    filepath.Join(*workdir, fmt.Sprintf("%s-%d.spans.jsonl", *workload, *seed)),
		listing:  "BENCHMARK.json",
		workers:  max(1, runtime.GOMAXPROCS(0)/2),
		log:      stderr,
	}
	res, err := runWorkload(cfg)
	if err == nil {
		var line []byte
		if line, err = res.jsonLine(); err == nil {
			res.writeTable(stdout, cfg)
			fmt.Fprintf(stdout, "%s\n", line)
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench: %v\n", err)
	return 1
}

// runWorkload runs the configured workload once.
func runWorkload(cfg config) (*result, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	return runLibrary(cfg, w)
}
