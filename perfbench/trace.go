package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID identifies a span within its tracer; 0 means no parent.
type spanID int

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	ID     spanID `json:"id"`
	Parent spanID `json:"parent,omitempty"`
	Sweep  string `json:"sweep"`
	Start  int64  `json:"start_ns"` // relative to the tracer's creation
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part of it the span's children cover.
	Self int64 `json:"self_ns"`
}

// tracer keeps a run's spans in memory until write saves them. It is safe
// for concurrent use: the job model's workers record into it at once.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent spanID, sweep string) spanID {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Sweep: sweep, Start: now})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id spanID) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span timed elsewhere: client calls and cluster round trips.
func (t *tracer) record(name string, parent spanID, sweep string, start, end time.Time) spanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Sweep: sweep,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals, clipped to its own. A sweep's jobs run on
// several workers at once, so children may overlap one another.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanID][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type interval struct{ lo, hi int64 }
	for i := range t.spans {
		s := &t.spans[i]
		var ivs []interval
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), int64(math.MinInt64)
		for _, iv := range ivs {
			if lo := max(iv.lo, reach); iv.hi > lo {
				covered += iv.hi - lo
				reach = iv.hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// total is the summed duration of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTotal is the summed self time of the spans with the given name;
// valid after finish.
func (t *tracer) selfTotal(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.Self)
		}
	}
	return sum
}

// write saves the spans as JSON lines and prints each span name's count,
// total and self time to log.
func (t *tracer) write(path string, log io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type totals struct {
		count       int
		total, self int64
	}
	byName := make(map[string]*totals)
	var names []string
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		a := byName[s.Name]
		if a == nil {
			a = &totals{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.count++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n%-20s %8s %12s %12s\n", len(t.spans), path, "span", "count", "total_s", "self_s")
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(log, "%-20s %8d %12.4f %12.4f\n", name, a.count, float64(a.total)/1e9, float64(a.self)/1e9)
	}
	return nil
}
