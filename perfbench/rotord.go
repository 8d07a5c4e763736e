package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rotorring/internal/cluster"
	"rotorring/internal/engine"
	"rotorring/internal/service"
)

const (
	// passGroups is how many groups of four submissions one rotord pass
	// sends.
	passGroups = 6
	// cacheProbes is how many finished sweeps a traced run submits again
	// with the agent axis reversed, to time row-cache replay alone.
	cacheProbes = 8
)

// rotordLayers books the service and cluster layers of a traced run. It
// drives an in-process rotord with cluster workers joined over loopback
// through passes of small sweeps of scenario-mix's shape, each pass on a
// fresh rig: minPasses untimed passes for the CPU cost per row, then one
// pass whose client calls and cluster round trips become spans of tr, and
// the row-cache replay probe. Every stream is checked against library
// references, and failures go into res.
func rotordLayers(cfg config, tr *tracer, m map[string]float64, res *result) (err error) {
	defer func() {
		if rerr := os.RemoveAll(spoolRoot(cfg)); err == nil {
			err = rerr
		}
	}()
	groups := passGroups
	if cfg.tiny {
		groups = 2
	}
	subs, err := submissions(cfg.seed, cfg.tiny, groups)
	if err != nil {
		return err
	}
	refs, libCPU, err := computeReferences(specsOf(subs), cfg.workers)
	if err != nil {
		return err
	}
	calls := &callLog{}
	plain, err := servicePasses(cfg, subs, refs, calls, res)
	if err != nil {
		return err
	}
	r, err := openRig(cfg, spoolPath(cfg, plain.passes), calls)
	if err != nil {
		return err
	}
	traced, err := r.session(subs)
	var probes []submission
	var probeOuts []outcome
	if err == nil {
		probes, probeOuts, err = r.probeCache(subs, traced.outs)
	}
	if serr := r.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	probeRefs, _, err := computeReferences(specsOf(probes), cfg.workers)
	if err != nil {
		return err
	}
	traced.verify(refs, res, false)
	probeRows, _ := verifyOutcomes(probeOuts, probeRefs, res, false)
	traced.trace(tr, calls.snapshot())

	// The library's own time for each submission's jobs, for the queue
	// wait; its spans stay out of tr.
	tl := &tracedRun{}
	if err := tl.pass(cfg, specsOf(subs), refs, newTracer(), true, res); err != nil {
		return err
	}
	libRows := 0
	for _, ref := range refs {
		libRows += len(ref.lines)
	}
	// rotord CPU per row over library CPU per row on the same specs.
	m["service.overhead_ratio"] = ratio(plain.cpuMsPerRow(), ratio(msOf(libCPU), float64(libRows)))
	serviceLayers(m, traced, subs, tl, probeOuts, probeRows)
	clusterLayers(m, calls.snapshot(), traced)
	return nil
}

// servicePasses sends the submission stream minPasses times, each pass on
// a fresh rig.
func servicePasses(cfg config, subs []submission, refs []*reference, calls *callLog, res *result) (*passRun, error) {
	pr := newPassRun(len(subs))
	for ; pr.passes < minPasses; pr.passes++ {
		r, err := openRig(cfg, spoolPath(cfg, pr.passes), calls)
		if err != nil {
			return nil, err
		}
		s, err := r.session(subs)
		if serr := r.shutdown(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		rows, steps := s.verify(refs, res, cfg.corrupt && pr.passes == 0)
		pr.rows += rows
		pr.steps += steps
		for i, o := range s.outs {
			if !o.end.IsZero() {
				pr.times.add(i, o.end.Sub(o.start), o.cpu)
			}
		}
	}
	pr.rt1 = readRuntime()
	return pr, nil
}

// spoolRoot holds this process's spools. They are removed together at the
// end: deleting a spool's thousand files between passes would load the
// disk while the next pass runs.
func spoolRoot(cfg config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spools-%d", os.Getpid()))
}

// spoolPath is the i-th fresh spool directory of this process.
func spoolPath(cfg config, i int) string {
	return filepath.Join(spoolRoot(cfg), strconv.Itoa(i))
}

// rig is an in-process rotord: the service on a fresh spool behind its
// Handler on a loopback listener, plus cluster workers with one executor
// each, cfg.workers of them.
type rig struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	spool  string
	cancel context.CancelFunc // stops the workers
	wg     sync.WaitGroup     // the listener and the workers
}

// openRig starts a rig — service.Open on the fresh spool, the listener and
// the workers — and returns once every worker has registered.
func openRig(cfg config, spool string, calls *callLog) (*rig, error) {
	srv, err := service.Open(spool, service.Workers(cfg.workers))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &rig{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), spool: spool}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.hs.Serve(ln) // returns http.ErrServerClosed once shutdown runs
	}()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	registered := make(chan struct{}, cfg.workers)
	for i := 1; i <= cfg.workers; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: r.base,
			Name:        fmt.Sprintf("bench%d", i),
			Parallel:    1,
			Version:     "perfbench",
			Client:      &http.Client{Transport: &timedTransport{rt: newTransport(0), calls: calls, worker: i, registered: registered}},
		})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			w.Run(ctx) // returns once shutdown cancels ctx
		}()
	}
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for i := 0; i < cfg.workers; i++ {
		select {
		case <-registered:
		case <-timeout.C:
			r.shutdown()
			return nil, errors.New("cluster workers did not register within 30s")
		}
	}
	return r, nil
}

// shutdown stops the workers, the listener and the service, in that order,
// and waits for the rig's goroutines.
func (r *rig) shutdown() error {
	r.cancel()
	err := r.hs.Close()
	r.srv.Close()
	r.wg.Wait()
	return err
}

// call is one round trip a cluster worker made to the coordinator.
type call struct {
	worker     int
	path       string
	status     int // 0 when the transport failed
	start, end time.Time
}

// callLog collects the cluster round trips of every worker of a run.
type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *callLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]call(nil), l.calls...)
}

// timedTransport times every round trip of one cluster worker and signals
// its first successful registration.
type timedTransport struct {
	rt         http.RoundTripper
	calls      *callLog
	worker     int
	registered chan<- struct{}
	once       sync.Once
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := call{worker: t.worker, path: req.URL.Path, start: time.Now()}
	resp, err := t.rt.RoundTrip(req)
	c.end = time.Now()
	if err == nil {
		c.status = resp.StatusCode
	}
	t.calls.add(c)
	if c.status == http.StatusOK && path.Base(c.path) == "register" {
		t.once.Do(func() { t.registered <- struct{}{} })
	}
	return resp, err
}

// newTransport returns a transport for loopback traffic: no proxy, no
// compression, and at most maxConns connections (0: no limit).
func newTransport(maxConns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: 4, DisableCompression: true}
}

// outcome is one submission's trip through rotord, as its client saw it.
type outcome struct {
	sub        int           // index into the submission stream
	start      time.Time     // POST sent
	postDone   time.Time     // POST answered
	firstRow   time.Time     // first row line received
	end        time.Time     // last row line received
	statusDone time.Time     // status document read
	codes      [3]int        // HTTP status of the POST, the row stream and the status GET
	state      string        // the sweep's state after its stream ended
	body       []byte        // the streamed rows
	cpu        time.Duration // process CPU time from POST sent to status read
	err        error
}

// session is one pass of the submission stream against a rig.
type session struct {
	outs       []outcome
	start, end time.Time          // first POST sent, last row received
	metrics    map[string]float64 // rotord's /metrics after the pass
	spoolBytes int64              // bytes under spool/sweeps
	cacheFiles int
}

// session sends every submission in order from one client, as one user
// would, each once its predecessor's status has been read; then it reads
// /metrics and the spool.
func (r *rig) session(subs []submission) (*session, error) {
	client := &http.Client{Transport: newTransport(1)}
	defer client.CloseIdleConnections()
	s := &session{outs: make([]outcome, len(subs))}
	for i, sub := range subs {
		cpu0 := cpuTime()
		s.outs[i] = r.submit(client, i, sub)
		s.outs[i].cpu = cpuTime() - cpu0
		if s.outs[i].end.After(s.end) {
			s.end = s.outs[i].end
		}
	}
	s.start = s.outs[0].start
	var err error
	if s.metrics, err = r.scrape(); err != nil {
		return nil, err
	}
	if s.spoolBytes, s.cacheFiles, err = spoolStats(r.spool); err != nil {
		return nil, err
	}
	return s, nil
}

// submit POSTs one submission, streams its rows to the end and reads its
// status document.
func (r *rig) submit(client *http.Client, idx int, sub submission) outcome {
	o := outcome{sub: idx, start: time.Now()}
	var posted struct {
		ID string `json:"id"`
	}
	o.codes[0], o.err = request(client, http.MethodPost, r.base+"/v1/sweeps", sub.wire, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&posted)
	})
	o.postDone = time.Now()
	if o.err != nil {
		return o
	}
	o.codes[1], o.err = request(client, http.MethodGet, r.base+"/v1/sweeps/"+posted.ID+"/rows", nil, func(body io.Reader) error {
		var buf bytes.Buffer
		br := bufio.NewReader(body)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 {
				if o.firstRow.IsZero() {
					o.firstRow = time.Now()
				}
				buf.Write(line)
			}
			if err != nil {
				o.body = buf.Bytes()
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	})
	o.end = time.Now()
	if o.err != nil {
		return o
	}
	var status struct {
		State string `json:"state"`
	}
	o.codes[2], o.err = request(client, http.MethodGet, r.base+"/v1/sweeps/"+posted.ID, nil, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&status)
	})
	o.statusDone = time.Now()
	o.state = status.State
	return o
}

// request makes one HTTP call and hands a 2xx body to read. It drains and
// closes the body either way, so the client's connection is reused.
func request(client *http.Client, method, url string, body []byte, read func(io.Reader) error) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // the status is the failure; draining only frees the connection
		return resp.StatusCode, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	err = read(resp.Body)
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// scrape reads rotord's Prometheus /metrics into series name → value.
func (r *rig) scrape() (map[string]float64, error) {
	client := &http.Client{Transport: newTransport(1)}
	defer client.CloseIdleConnections()
	m := make(map[string]float64)
	_, err := request(client, http.MethodGet, r.base+"/metrics", nil, func(body io.Reader) error {
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
		return sc.Err()
	})
	return m, err
}

// spoolStats sums the bytes of every file under the spool's sweeps
// directory and counts the row-cache entries.
func spoolStats(spool string) (sweepBytes int64, cacheFiles int, err error) {
	sweeps := filepath.Join(spool, "sweeps") + string(filepath.Separator)
	err = filepath.WalkDir(spool, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasPrefix(p, sweeps):
			info, err := d.Info()
			if err != nil {
				return err
			}
			sweepBytes += info.Size()
		case strings.HasSuffix(p, ".row"):
			cacheFiles++
		}
		return nil
	})
	return sweepBytes, cacheFiles, err
}

// probeCache submits up to cacheProbes finished sweeps again with the agent
// axis reversed: new sweep ids over the same jobs, so every row replays
// from the row cache and the stream times cache replay alone.
func (r *rig) probeCache(subs []submission, outs []outcome) ([]submission, []outcome, error) {
	client := &http.Client{Transport: newTransport(1)}
	defer client.CloseIdleConnections()
	var probes []submission
	var probeOuts []outcome
	for _, o := range outs {
		if len(probes) == cacheProbes {
			break
		}
		if subs[o.sub].enlarges >= 0 || o.state != "done" {
			continue
		}
		spec := reversed(subs[o.sub].spec)
		wire, err := engine.EncodeWireSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		probes = append(probes, submission{spec: spec, wire: wire, enlarges: o.sub})
		probeOuts = append(probeOuts, r.submit(client, len(probes)-1, probes[len(probes)-1]))
	}
	return probes, probeOuts, nil
}

// verify checks every outcome of the session against its reference and
// books requests, sweep states, rows and reassigned leases into res. It
// returns the verified rows and their agent steps.
func (s *session) verify(refs []*reference, res *result, corrupt bool) (rows int, steps float64) {
	rows, steps = verifyOutcomes(s.outs, refs, res, corrupt)
	res.count(int(s.metrics["rotord_cluster_leases_granted_total"]), int(s.metrics["rotord_cluster_leases_reassigned_total"]))
	return rows, steps
}

// verifyOutcomes books each outcome's three requests and final state, and
// its rows checked against the reference of its submission.
func verifyOutcomes(outs []outcome, refs []*reference, res *result, corrupt bool) (rows int, steps float64) {
	for i, o := range outs {
		if corrupt && i == 0 {
			flipByte(o.body)
		}
		bad := 0
		for _, c := range o.codes {
			if c/100 != 2 {
				bad++
			}
		}
		if o.err != nil && bad == 0 {
			bad = 1 // a 2xx whose body broke off
		}
		if o.state != "done" {
			bad++
		}
		res.count(len(o.codes)+1, bad)
		n, badRows, st := refs[o.sub].verify(o.body)
		res.count(n, badRows)
		rows += n - badRows
		steps += st
	}
	return rows, steps
}

// trace turns the window's client calls and cluster round trips into
// spans. Both were timed where they were made; recording them afterwards
// keeps the tracer off the service's path.
func (s *session) trace(tr *tracer, calls []call) {
	for _, o := range s.outs {
		id := fmt.Sprintf("submission%d", o.sub)
		last := o.postDone
		for _, t := range []time.Time{o.end, o.statusDone} {
			if t.After(last) {
				last = t
			}
		}
		root := tr.record("service.submission", 0, id, o.start, last)
		tr.record("service.submit", root, id, o.start, o.postDone)
		if !o.end.IsZero() {
			tr.record("service.stream", root, id, o.postDone, o.end)
		}
		if !o.statusDone.IsZero() {
			tr.record("service.status", root, id, o.end, o.statusDone)
		}
	}
	for _, c := range calls {
		if c.end.Before(s.start) || c.start.After(s.end) {
			continue
		}
		tr.record("cluster."+path.Base(c.path), 0, fmt.Sprintf("worker%d", c.worker), c.start, c.end)
	}
}

// serviceLayers books the service metrics of the traced window.
func serviceLayers(m map[string]float64, s *session, subs []submission, tl *tracedRun, probes []outcome, probeRows int) {
	var submit, wait []float64
	var streamBytes int
	var streamTime, probeTime time.Duration
	for _, o := range s.outs {
		submit = append(submit, msOf(o.postDone.Sub(o.start)))
		if o.end.IsZero() {
			continue
		}
		streamBytes += len(o.body)
		streamTime += o.end.Sub(o.postDone)
		// Queue wait: the first row's latency less the library's own time
		// for job 0. Enlarging submissions are left out: their first row
		// may come from the cache.
		if subs[o.sub].enlarges < 0 && !o.firstRow.IsZero() {
			wait = append(wait, msOf(o.firstRow.Sub(o.start)-tl.sweeps[o.sub].jobs[0].run))
		}
	}
	for _, o := range probes {
		if !o.end.IsZero() {
			probeTime += o.end.Sub(o.start)
		}
	}
	hits, misses := s.metrics["rotord_cache_hits_total"], s.metrics["rotord_cache_misses_total"]
	m["service.submit_ms_p50"] = quantile(submit, .5)
	m["service.submit_ms_p90"] = quantile(submit, .9)
	m["service.queue_wait_ms_p50"] = quantile(wait, .5)
	m["service.stream_mb_per_s"] = ratio(float64(streamBytes)/1e6, streamTime.Seconds())
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["service.cache_replay_rows_per_s"] = ratio(float64(probeRows), probeTime.Seconds())
	m["service.spool_bytes_per_row"] = ratio(float64(s.spoolBytes), s.metrics["rotord_rows_committed_total"])
	m["service.cache_files"] = float64(s.cacheFiles)
}

// clusterLayers books the cluster metrics: registration over every set-up,
// lease and completion round trips over the traced window.
func clusterLayers(m map[string]float64, calls []call, s *session) {
	var register, lease, complete []float64
	empty := 0
	for _, c := range calls {
		d := msOf(c.end.Sub(c.start))
		op := path.Base(c.path)
		if op == "register" && c.status == http.StatusOK {
			register = append(register, d)
		}
		if c.end.Before(s.start) || c.end.After(s.end) {
			continue
		}
		switch {
		case op == "lease" && c.status == http.StatusOK:
			lease = append(lease, d)
		case op == "lease" && c.status == http.StatusNoContent:
			empty++
		case op == "complete":
			complete = append(complete, d)
		}
	}
	m["cluster.register_ms"] = quantile(register, .5)
	m["cluster.lease_rtt_ms_p50"] = quantile(lease, .5)
	m["cluster.lease_rtt_ms_p90"] = quantile(lease, .9)
	m["cluster.lease_empty_polls"] = float64(empty)
	m["cluster.complete_rtt_ms_p50"] = quantile(complete, .5)
	m["cluster.rows_per_complete"] = ratio(s.metrics["rotord_cluster_rows_remote_total"], float64(len(complete)))
	m["cluster.leases_reassigned"] = s.metrics["rotord_cluster_leases_reassigned_total"]
}
