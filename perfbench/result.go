package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// result is what one run reports: the counts behind fail_ratio and the
// metrics in the order they were measured.
type result struct {
	attempted, failed int
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// count books n attempted operations, bad of which failed.
func (r *result) count(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// jsonLine renders the result line: correct, attempted, failed and every
// metric with its unit.
func (r *result) jsonLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(out)
}

// writeTable prints the metrics for a reader, fail_ratio included.
func (r *result) writeTable(w io.Writer, cfg config) {
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d %s workers=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, kind, cfg.workers, runtime.GOMAXPROCS(0), runtime.Version())
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-36s %16.6g ratio (%d of %d attempted failed)\n",
		"fail_ratio", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// passTimes holds the wall and CPU time of every item of a pass — a sweep,
// or a rotord submission — in every pass of a run. The end-to-end figures
// rest on each item's best time over the passes. Noise on a shared host is
// one-sided: a neighbour's load or a slow phase of the machine only ever
// slows a sample down, often for seconds at a time and in wall and CPU time
// alike, so that the median of a run's samples moves by a fifth from one
// run to the next. The fastest sample is the item's time on an unloaded
// host, and it holds as long as one pass in the run ran unslowed.
type passTimes struct {
	wall, cpu [][]float64 // seconds, indexed [item][pass]
}

func newPassTimes(items int) *passTimes {
	return &passTimes{wall: make([][]float64, items), cpu: make([][]float64, items)}
}

func (p *passTimes) add(item int, wall, cpu time.Duration) {
	p.wall[item] = append(p.wall[item], wall.Seconds())
	p.cpu[item] = append(p.cpu[item], cpu.Seconds())
}

// bestPass is the wall and CPU time, in seconds, of a pass in which every
// item takes its best time.
func (p *passTimes) bestPass() (wall, cpu float64) {
	for i := range p.wall {
		wall += quantile(p.wall[i], 0)
		cpu += quantile(p.cpu[i], 0)
	}
	return wall, cpu
}

// total is the summed wall and CPU time, in seconds, of every item in
// every pass.
func (p *passTimes) total() (wall, cpu float64) {
	for i := range p.wall {
		for j := range p.wall[i] {
			wall += p.wall[i][j]
			cpu += p.cpu[i][j]
		}
	}
	return wall, cpu
}

// ratio is a/b, or 0 when b is 0: a layer the workload never reached.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// cpuTime is the user plus system CPU time of the whole process: library,
// service, workers and clients alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats snapshots the Go runtime's allocation and GC CPU counters.
type runtimeStats struct {
	allocBytes    uint64
	gcCPU, allCPU float64 // seconds
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeStats{allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU, rs.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rs
}

// runtimeLayers books the runtime metrics of an untraced window that
// delivered rows verified rows.
func runtimeLayers(m map[string]float64, before, after runtimeStats, rows int) {
	m["runtime.alloc_bytes_per_row"] = ratio(float64(after.allocBytes-before.allocBytes), float64(rows))
	m["runtime.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
}
