package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"rotorring/internal/engine"
)

// reference is the library's output for one spec — Engine.Run into the
// JSONL sink, computed once per run — against which every delivery of the
// spec is checked.
type reference struct {
	lines [][]byte
	steps []float64 // agent steps (rounds × k) per row
	bad   []bool    // the row itself is a failure: it carries err or mission_timeout
}

// computeReferences runs every spec once through Engine.Run and returns the
// references and the CPU time they took.
func computeReferences(specs []engine.SweepSpec, workers int) ([]*reference, time.Duration, error) {
	eng := engine.New(engine.Workers(workers))
	refs := make([]*reference, len(specs))
	cpu0 := cpuTime()
	for i, spec := range specs {
		var buf bytes.Buffer
		rows, err := eng.Run(spec, engine.NewJSONLSink(&buf))
		if err != nil {
			return nil, 0, fmt.Errorf("reference of spec %d: %w", i, err)
		}
		ref := &reference{lines: splitLines(buf.Bytes())}
		if len(ref.lines) != len(rows) {
			return nil, 0, fmt.Errorf("reference of spec %d: %d lines for %d rows", i, len(ref.lines), len(rows))
		}
		for _, r := range rows {
			ref.steps = append(ref.steps, float64(r.Rounds)*float64(r.K))
			ref.bad = append(ref.bad, r.Err != "" || r.MissionTimeout)
		}
		refs[i] = ref
	}
	return refs, cpuTime() - cpu0, nil
}

// verify checks one delivered stream against the reference row by row. It
// returns the rows attempted, the rows that failed — missing, extra,
// different in any byte, or carrying err or mission_timeout — and the agent
// steps of the rows that passed.
func (ref *reference) verify(got []byte) (rows, bad int, steps float64) {
	lines := splitLines(got)
	for i, want := range ref.lines {
		if i < len(lines) && bytes.Equal(lines[i], want) && !ref.bad[i] {
			steps += ref.steps[i]
			continue
		}
		bad++
	}
	rows = len(ref.lines)
	if extra := len(lines) - len(ref.lines); extra > 0 {
		rows += extra
		bad += extra
	}
	return rows, bad, steps
}

// splitLines splits JSONL bytes into lines, newlines kept.
func splitLines(b []byte) [][]byte {
	lines := bytes.SplitAfter(b, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	return lines
}

// flipByte flips one bit in the middle of b: the tests' proof that a
// corrupted delivery is caught.
func flipByte(b []byte) {
	if len(b) > 0 {
		b[len(b)/2] ^= 1
	}
}

// setupSample times what a library sweep does before its first job can
// run: engine.Expand of every spec. It repeats that for at least 5 ms and
// divides by the repeats, so the clock's resolution drops out. A run takes
// one sample before each pass and reports the fastest, as it does for the
// sweeps.
func setupSample(specs []engine.SweepSpec) (time.Duration, error) {
	t0, reps := time.Now(), 0
	for reps < 10 || time.Since(t0) < 5*time.Millisecond {
		for _, spec := range specs {
			if _, err := engine.Expand(spec); err != nil {
				return 0, err
			}
		}
		reps++
	}
	return time.Since(t0) / time.Duration(reps), nil
}

// minPasses is the fewest passes a run makes, however long one takes: each
// item needs a few samples for one of them to run unslowed.
const minPasses = 5

// passRun is one measured run of passes: library sweeps or rotord
// submissions, every item timed in every pass.
type passRun struct {
	times        *passTimes
	setup        time.Duration // the fastest set-up sample
	passes, rows int           // rows: verified, over all passes
	steps        float64       // agent steps of the verified rows
	rt0, rt1     runtimeStats
}

func newPassRun(items int) *passRun {
	return &passRun{times: newPassTimes(items), rt0: readRuntime()}
}

// rowsPerS is the verified rows over the summed item times of all passes.
func (pr *passRun) rowsPerS() float64 {
	wall, _ := pr.times.total()
	return ratio(float64(pr.rows), wall)
}

// cpuMsPerRow is the process CPU time of all passes per verified row.
func (pr *passRun) cpuMsPerRow() float64 {
	_, cpu := pr.times.total()
	return ratio(cpu*1e3, float64(pr.rows))
}

// report adds the end-to-end metrics: set-up time, and throughput and CPU
// time of a pass made of each item's best time.
func (pr *passRun) report(res *result) {
	wall, cpu := pr.times.bestPass()
	rows, steps := float64(pr.rows)/float64(pr.passes), pr.steps/float64(pr.passes)
	res.add("setup_s", "s", pr.setup.Seconds())
	res.add("rows_per_s", "rows/s", ratio(rows, wall))
	res.add("agent_steps_per_s", "steps/s", ratio(steps, wall))
	res.add("cpu_ms_per_row", "ms", ratio(cpu*1e3, rows))
}

// runPasses repeats the workload's pass through Engine.Run at cfg.workers
// until the window is spent. A sweep is timed from Run's call to its
// return; its bytes are checked between sweeps, off the clock.
func runPasses(cfg config, specs []engine.SweepSpec, refs []*reference, window time.Duration, res *result) (*passRun, error) {
	eng := engine.New(engine.Workers(cfg.workers))
	pr := newPassRun(len(specs))
	for elapsed := time.Duration(0); pr.passes < minPasses || elapsed < window; pr.passes++ {
		setup, err := setupSample(specs)
		if err != nil {
			return nil, err
		}
		if pr.passes == 0 || setup < pr.setup {
			pr.setup = setup
		}
		for i, spec := range specs {
			var buf bytes.Buffer
			cpu0, t0 := cpuTime(), time.Now()
			_, err := eng.Run(spec, engine.NewJSONLSink(&buf))
			wall, cpu := time.Since(t0), cpuTime()-cpu0
			if err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
			elapsed += wall
			pr.times.add(i, wall, cpu)
			out := buf.Bytes()
			if cfg.corrupt && pr.passes == 0 && i == 0 {
				flipByte(out)
			}
			n, bad, st := refs[i].verify(out)
			res.count(n, bad)
			pr.rows += n - bad
			pr.steps += st
		}
	}
	pr.rt1 = readRuntime()
	return pr, nil
}

// runLibrary runs a library workload. An untraced run measures the
// end-to-end metrics over the whole window. A traced run spends half the
// window untraced — the base of the tracing overhead, and the runtime
// counters — and half driving the job model under the tracer; its first
// traced pass is then replayed layer by layer.
func runLibrary(cfg config, w workload) (*result, error) {
	specs := w.pass(newRNG(cfg.seed), cfg.tiny)
	refs, _, err := computeReferences(specs, cfg.workers)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if !cfg.trace {
		pr, err := runPasses(cfg, specs, refs, cfg.window, res)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "perfbench: %s seed=%d: %d passes of %d sweeps, %d verified rows\n",
			cfg.workload, cfg.seed, pr.passes, len(specs), pr.rows)
		pr.report(res)
		return res, nil
	}
	plain, err := runPasses(cfg, specs, refs, cfg.window/2, res)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tl := &tracedRun{}
	for tl.wall < cfg.window/2 {
		if err := tl.pass(cfg, specs, refs, tr, tl.passes == 0, res); err != nil {
			return nil, err
		}
	}
	m := map[string]float64{
		"trace.overhead_ratio": ratio(float64(tl.rows)/tl.wall.Seconds(), plain.rowsPerS()),
	}
	runtimeLayers(m, plain.rt0, plain.rt1, plain.rows)
	if err := libraryLayers(m, cfg, tr, tl); err != nil {
		return nil, err
	}
	if w.rotord {
		if err := rotordLayers(cfg, tr, m, res); err != nil {
			return nil, err
		}
	}
	if err := finishTrace(cfg, tr, res, m); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedRun is the job model driven by the benchmark itself, with a span
// around every call into a layer.
type tracedRun struct {
	wall          time.Duration // summed sweep times
	rows          int           // verified rows
	jobs, encoded int           // jobs run, and the RowBytes bytes they encoded to
	passes        int
	sweeps        []tracedSweep // the first pass: what the replay re-runs
}

// tracedSweep is one sweep of a traced pass, its jobs in canonical order.
type tracedSweep struct {
	id   string
	exp  *engine.ExpandedSweep
	jobs []jobRecord
}

// jobRecord is one executed job.
type jobRecord struct {
	idx int
	row engine.Row
	run time.Duration // JobRunner.Run
	n   int           // RowBytes length
}

// pass runs every spec once through the job model, keeping the sweeps for
// the replay when keep is set, and checks each sweep's bytes against its
// reference: the job model must reproduce Engine.Run byte for byte.
func (tl *tracedRun) pass(cfg config, specs []engine.SweepSpec, refs []*reference, tr *tracer, keep bool, res *result) error {
	for i, spec := range specs {
		id := fmt.Sprintf("pass%d/sweep%d", tl.passes, i)
		t0 := time.Now()
		root := tr.start("engine.sweep", 0, id)
		sp := tr.start("engine.expand", root, id)
		exp, err := engine.Expand(spec)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
		out, jobs, err := runJobModel(exp, cfg.workers, tr, root, id)
		tr.end(root)
		tl.wall += time.Since(t0)
		if err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
		n, bad, _ := refs[i].verify(out)
		res.count(n, bad)
		tl.rows += n - bad
		for _, j := range jobs {
			tl.jobs++
			tl.encoded += j.n
		}
		if keep {
			tl.sweeps = append(tl.sweeps, tracedSweep{id: id, exp: exp, jobs: jobs})
		}
	}
	tl.passes++
	return nil
}

// runJobModel executes an expanded sweep as Engine.Run does — one JobRunner
// per goroutine, rows re-sequenced into canonical order and emitted into
// the JSONL sink — with a span around every layer call.
func runJobModel(exp *engine.ExpandedSweep, workers int, tr *tracer, parent spanID, sweep string) ([]byte, []jobRecord, error) {
	jobs := exp.NumJobs()
	workers = min(workers, jobs)
	type done struct {
		rec jobRecord
		err error
	}
	next := make(chan int)
	// One slot per worker, as in Engine.Run: a finished job need not wait
	// for the sink.
	out := make(chan done, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := exp.NewRunner()
			for idx := range next {
				js := tr.start("engine.job", parent, sweep)
				rs := tr.start("engine.run", js, sweep)
				t0 := time.Now()
				row := runner.Run(idx)
				d := time.Since(t0)
				tr.end(rs)
				es := tr.start("engine.encode", js, sweep)
				b, err := engine.RowBytes(row)
				tr.end(es)
				tr.end(js)
				out <- done{jobRecord{idx: idx, row: row, run: d, n: len(b)}, err}
			}
		}()
	}
	go func() {
		for i := 0; i < jobs; i++ {
			next <- i
		}
		close(next)
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	var buf bytes.Buffer
	sink := engine.NewJSONLSink(&buf)
	firstErr := sink.Begin(exp.Spec(), jobs)
	recs := make([]jobRecord, 0, jobs)
	pending := make(map[int]jobRecord, workers)
	for d := range out {
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		pending[d.rec.idx] = d.rec
		for {
			rec, ok := pending[len(recs)]
			if !ok {
				break
			}
			delete(pending, len(recs))
			recs = append(recs, rec)
			if firstErr != nil {
				continue
			}
			ss := tr.start("engine.sink", parent, sweep)
			firstErr = sink.Emit(rec.row)
			tr.end(ss)
		}
	}
	if firstErr == nil {
		firstErr = sink.End()
	}
	return buf.Bytes(), recs, firstErr
}
