package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"rotorring/internal/engine"
)

// fuzzMaxJobs is the MaxExpandedJobs cap of the fuzzed server: larger
// grids are rejected with 413 before anything runs.
const fuzzMaxJobs = 8

// fuzzRowsSpec is the finished sweep whose rows the fuzzer reads.
const fuzzRowsSpec = `{"v":1,"topologies":["ring","path"],"sizes":[12],"agents":[2,3],` +
	`"probes":[{"name":"coverage","stride":4}],"maxRounds":256}`

// FuzzHTTPSubmitAndRows drives the HTTP API on a temp spool. It POSTs an
// arbitrary body to /v1/sweeps, then reads /v1/sweeps/{id}/rows of a
// finished sweep with an arbitrary cursor and format. Whatever the input,
// the server must not panic, must answer a documented status (200, 201,
// 400, 404, 410, 413 or 429; a healthy temp spool raises no spool fault,
// so a 500 is a finding), and must create no directory under
// spool/sweeps for a body it rejects. Accepted sweeps are canceled at once.
func FuzzHTTPSubmitAndRows(f *testing.F) {
	spool := f.TempDir()
	srv, err := Open(spool, Workers(1), MaxExpandedJobs(fuzzMaxJobs))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		// A canceled request context releases the rows stream's watcher
		// goroutine, as net/http does when a handler returns.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx))
		return rec
	}

	rec := serve(http.MethodPost, "/v1/sweeps", []byte(fuzzRowsSpec))
	if rec.Code != http.StatusCreated {
		f.Fatalf("submit the rows sweep: status %d: %s", rec.Code, rec.Body)
	}
	rowsSweep := mustSweep(f, srv, strings.TrimPrefix(rec.Header().Get("Location"), "/v1/sweeps/"))
	for deadline := time.Now().Add(30 * time.Second); rowsSweep.state() != "done"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.Fatalf("rows sweep stuck in state %s", rowsSweep.state())
		}
	}

	// hugeGrid names 64^4 cells in two kilobytes: Submit must refuse it
	// from the axis lengths, without building the grid.
	list := func(item string) string { return strings.TrimSuffix(strings.Repeat(item+",", 64), ",") }
	hugeGrid := `{"v":1,"sizes":[` + list("8") + `],"agents":[` + list("1") +
		`],"placements":[` + list(`"single"`) + `],"pointers":[` + list(`"zero"`) + `]}`
	for _, c := range []struct{ body, from, format string }{
		{fuzzRowsSpec, "0", ""},
		{hugeGrid, "1", "csv"},
		{`{"v":1,"topologies":["ring"],"sizes":[16],"agents":[2],"maxRounds":512}`, "3", "csv"},
		{`{"v":1,"topologies":["ring","grid:4x4"],"sizes":[16],"agents":[2,3],"schedules":["delay:p=0.25","churn:join=2@4"],"maxRounds":256}`, "4", "jsonl"},
		{`{"v":1,"sizes":[8,9,10],"agents":[1,2,3],"maxRounds":64}`, "-1", "JSONL"},
		{`{"v":1,"sizes":[12],"agents":[2],"process":"walk","missions":["explore"],"maxRounds":128}`, "99999999999999999999", "parquet"},
		{`{"agents":[2],"sizes":[32]}`, "x", ""},
		{`{"v":1,"topology":"ring","agents":[2],"sizes":[32]}`, "", "table"},
		{`not json`, "", ""},
		{``, "2", "csv"},
	} {
		f.Add([]byte(c.body), c.from, c.format)
	}
	f.Fuzz(func(t *testing.T, body []byte, from, format string) {
		if !fuzzAffordable(body) {
			return
		}
		before := sweepDirs(t, spool)
		rec := serve(http.MethodPost, "/v1/sweeps", body)
		switch rec.Code {
		case http.StatusCreated:
			sw := mustSweep(t, srv, strings.TrimPrefix(rec.Header().Get("Location"), "/v1/sweeps/"))
			if err := srv.Cancel(sw); err != nil {
				t.Fatalf("cancel accepted sweep %s: %v", sw.id, err)
			}
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			for _, d := range sweepDirs(t, spool) {
				if !slices.Contains(before, d) {
					t.Fatalf("rejected body %q (status %d) left spool/sweeps/%s", body, rec.Code, d)
				}
			}
		default:
			t.Fatalf("POST /v1/sweeps %q: status %d: %s", body, rec.Code, rec.Body)
		}

		q := url.Values{"from": {from}, "format": {format}}.Encode()
		rec = serve(http.MethodGet, "/v1/sweeps/"+rowsSweep.id+"/rows?"+q, nil)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("GET rows?%s: status %d: %s", q, rec.Code, rec.Body)
		}
	})
}

// fuzzNumber matches every decimal number in a canonical wire spec.
var fuzzNumber = regexp.MustCompile(`[0-9]+`)

// fuzzAffordable reports whether the fuzzed server may be handed body.
// Accepted specs run on the server's pool, so one must be small in every
// dimension: an explicit budget of at most 4096 rounds, at most 64 nodes
// per cell, and no number in its canonical form (seed and budget aside)
// above 64 — that bounds agents, schedule counts and rounds, windows and
// strides. Bodies the server rejects, with 400 or 413, cost nothing.
func fuzzAffordable(body []byte) bool {
	spec, err := engine.DecodeWireSpec(body)
	if err != nil {
		return true
	}
	if jobs, err := spec.NumJobs(); err != nil || jobs > fuzzMaxJobs {
		return true
	}
	if spec.MaxRounds < 1 || spec.MaxRounds > 1<<12 {
		return false
	}
	exp, err := engine.Expand(spec)
	if err != nil {
		return true
	}
	for job := 0; job < exp.NumJobs(); job++ {
		if c, _ := exp.Job(job); c.N > 64 {
			return false
		}
	}
	spec.Seed, spec.MaxRounds = 0, 0
	canon, err := engine.EncodeWireSpec(spec)
	if err != nil {
		return true
	}
	for _, num := range fuzzNumber.FindAll(canon, -1) {
		if v, err := strconv.Atoi(string(num)); err != nil || v > 64 {
			return false
		}
	}
	return true
}

// sweepDirs lists the entries of spool/sweeps.
func sweepDirs(t *testing.T, spool string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(spool, "sweeps"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
