package engine

import (
	"fmt"
	"runtime"
	"sync"
)

// Engine executes sweeps on a fixed-size worker pool.
type Engine struct {
	workers int
}

// Option configures an Engine.
type Option func(*Engine)

// Workers sets the worker-pool size; n <= 0 selects GOMAXPROCS. The result
// of a sweep does not depend on this value, only its wall-clock time.
func Workers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// New creates an Engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	return e
}

// NumWorkers returns the configured pool size.
func (e *Engine) NumWorkers() int { return e.workers }

// Run expands spec into its job grid, executes every job on the worker
// pool, and streams the rows in canonical order (cell index, then replica)
// into the sinks. The returned rows are the same sequence the sinks saw.
// Jobs whose measurement fails carry the error in Row.Err; Run itself only
// fails on invalid specs or sink errors.
func (e *Engine) Run(spec SweepSpec, sinks ...Sink) ([]Row, error) {
	// Run is a client of the exported job model (Expand / JobRunner), the
	// same one external schedulers use, so in-process sweeps and sharded
	// service sweeps cannot diverge: they execute literally the same code
	// per job.
	exp, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	jobs := exp.NumJobs()
	for _, s := range sinks {
		if err := s.Begin(exp.spec, jobs); err != nil {
			return nil, fmt.Errorf("engine: sink begin: %w", err)
		}
	}

	// Work units are single jobs (one replica of one cell), so replica-
	// heavy sweeps parallelize too. Each job builds its own process, so
	// the workers share one runner.
	workers := e.workers
	if workers > jobs {
		workers = jobs
	}
	type doneJob struct {
		idx int
		row Row
	}
	r := exp.NewRunner()
	next := make(chan int)
	out := make(chan doneJob, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				out <- doneJob{idx: idx, row: r.Run(idx)}
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

	// Stream completed jobs into the sinks, re-sequenced into canonical
	// order: a row is emitted as soon as every earlier row has been. A
	// sink error stops emission but still drains the workers.
	rows := make([]Row, 0, jobs)
	pending := make(map[int]Row, workers)
	cursor := 0
	var sinkErr error
	for d := range out {
		pending[d.idx] = d.row
		for {
			row, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			cursor++
			rows = append(rows, row)
			if sinkErr != nil {
				continue
			}
			for _, s := range sinks {
				if err := s.Emit(row); err != nil {
					sinkErr = fmt.Errorf("engine: sink emit: %w", err)
					break
				}
			}
		}
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	for _, s := range sinks {
		if err := s.End(); err != nil {
			return nil, fmt.Errorf("engine: sink end: %w", err)
		}
	}
	return rows, nil
}
