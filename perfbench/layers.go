package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads. Its
// per_layer list is the one place the per-layer names and units live.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	return bf, err
}

// reportLayers adds to res every per-layer metric BENCHMARK.json lists, in
// its order and with its unit. A layer the workload does not drive reads 0;
// a metric of m that is not listed is an error.
func reportLayers(res *result, m map[string]float64, listing string) error {
	bf, err := readBenchmarkFile(listing)
	if err != nil {
		return fmt.Errorf("per-layer listing: %w", err)
	}
	listed := make(map[string]bool, len(bf.PerLayer))
	for _, l := range bf.PerLayer {
		listed[l.Name] = true
		res.add(l.Name, l.Unit, m[l.Name])
	}
	for name := range m {
		if !listed[name] {
			return fmt.Errorf("per-layer metric %q is not listed in %s", name, listing)
		}
	}
	return nil
}

// libraryLayers books the layers beneath the service from a traced
// job-model run: the engine from its spans; graph, core, kernel and
// randwalk from replaying its cells; and the forced kernel tiers.
func libraryLayers(m map[string]float64, cfg config, tr *tracer, tl *tracedRun) error {
	runs := msList(tr.durations("engine.run"))
	jobBusy := tr.total("engine.run")
	m["engine.expand_ms_p50"] = quantile(msList(tr.durations("engine.expand")), .5)
	m["engine.job_busy_s"] = jobBusy.Seconds()
	m["engine.job_ms_p50"] = quantile(runs, .5)
	m["engine.job_ms_p99"] = quantile(runs, .99)
	m["engine.pool_utilization"] = ratio(jobBusy.Seconds(), float64(cfg.workers)*tr.total("engine.sweep").Seconds())
	m["engine.encode_busy_s"] = tr.total("engine.encode").Seconds()
	m["engine.encode_bytes_per_row"] = ratio(float64(tl.encoded), float64(tl.jobs))
	m["engine.sink_busy_s"] = tr.total("engine.sink").Seconds()
	rs, err := replay(tr, tl.sweeps)
	if err != nil {
		return err
	}
	rs.report(m)
	return forcedTiers(cfg, m)
}

// finishTrace computes self times, books the metric derived from them,
// adds every per-layer metric to res and writes the span file.
func finishTrace(cfg config, tr *tracer, res *result, m map[string]float64) error {
	tr.finish()
	m["engine.sweep_self_s"] = tr.selfTotal("engine.sweep").Seconds()
	if err := reportLayers(res, m, cfg.listing); err != nil {
		return err
	}
	return tr.write(cfg.spans, cfg.log)
}
