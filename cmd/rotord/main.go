// Command rotord serves rotor-router sweeps over HTTP: a long-running job
// server that accepts wire-format SweepSpecs, shards their expanded job
// grids across a bounded worker pool shared by all in-flight sweeps, and
// streams rows back as JSONL in canonical grid order — byte-identical to
// library-mode rotorring.RunSweep for the same spec, across shard counts,
// server restarts and row-cache hits.
//
// Progress checkpoints and the content-addressed row cache live in the
// spool directory; killing the server and restarting it on the same spool
// resumes every unfinished sweep at its completed-row watermark, and any
// sweep directory recovery cannot trust (a crash landed mid-write) is
// moved to spool/quarantine/ instead of blocking the boot.
//
//	rotord -addr 127.0.0.1:8080 -spool /var/lib/rotord
//
// rotord also runs as a cluster of one coordinator and N worker nodes
// (see DESIGN.md §6): the coordinator (the default mode above) owns the
// spool, the cache and the client API, and leases chunks of the job grid
// to workers, which execute them with the same job model and stream
// index-free row bytes back. Because every job is a pure function of
// (spec, job index), reassigning or duplicating a lease never changes a
// result byte. With zero workers registered the coordinator runs
// everything on its local pool, so single-node behavior is unchanged.
//
//	rotord -mode worker -join http://coordhost:8080 -name w1
//
// The API (see README.md, "Service", "Operations" and "Cluster"):
//
//	POST   /v1/sweeps            submit a spec ({"v":1,"topologies":...})
//	GET    /v1/sweeps            list sweeps (?state= filters)
//	GET    /v1/sweeps/{id}       status (jobs, completed, cacheHits)
//	GET    /v1/sweeps/{id}/rows  stream JSONL rows; ?from=N resumes at row
//	                             N, ?format=csv|summary re-renders via the
//	                             sink registry
//	DELETE /v1/sweeps/{id}       cancel the sweep and remove its spool
//	GET    /v1/registries        registered names for client introspection
//	POST   /v1/cluster/*         worker wire protocol (register, heartbeat,
//	                             lease, complete)
//	GET    /v1/cluster/workers   registered workers with lease stats
//	GET    /metrics              Prometheus text metrics (both roles)
//	GET    /healthz              liveness probe: role, version, workers
//	GET    /readyz               readiness probe (recovery done, pool live)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rotorring/internal/cluster"
	"rotorring/internal/service"
	"rotorring/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rotord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rotord", flag.ContinueOnError)
	mode := fs.String("mode", "coordinator", "role: coordinator (serve the client API, own the spool) or worker (join a coordinator and execute leases)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	spool := fs.String("spool", "rotord-spool", "spool directory: sweep checkpoints and the content-addressed row cache (coordinator only)")
	workers := fs.Int("workers", 0, "coordinator: local pool size; worker: parallel lease executors (0 = GOMAXPROCS); never affects result bytes")
	maxBody := fs.Int64("max-body-bytes", 0, "largest accepted spec body in bytes (0 = the 1 MiB default); over-limit POSTs get 413")
	maxJobs := fs.Int("max-jobs", 0, "largest job grid one sweep may expand to (0 = the 2^20 default); larger sweeps get 413")
	maxActive := fs.Int("max-active", 0, "most concurrently running sweeps (0 = unlimited); excess submissions get 429 + Retry-After")
	drain := fs.Duration("drain", 0, "how long shutdown waits for in-flight jobs (0 = the 30s default); the spool watermark stays exact either way")
	leaseTTL := fs.Duration("lease-ttl", 0, "coordinator: how long a worker lease may go without progress before it is reassigned (0 = the 15s default)")
	join := fs.String("join", "", "worker: coordinator base URL to join (e.g. http://host:8080)")
	name := fs.String("name", "", "worker: operator-facing worker name (default: host:pid)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "coordinator":
		return runCoordinator(*addr, *spool, *workers, *maxBody, *maxJobs, *maxActive, *drain, *leaseTTL)
	case "worker":
		if *join == "" {
			return errors.New("-mode worker requires -join <coordinator URL>")
		}
		return runWorker(*addr, *join, *name, *workers)
	default:
		return fmt.Errorf("unknown -mode %q (coordinator|worker)", *mode)
	}
}

// defaultMaxJobs is the job cap of a rotord started without -max-jobs: a
// spec body of a few kilobytes can name a grid of billions of cells, and a
// server open to clients must bound what one submission may expand to.
const defaultMaxJobs = 1 << 20

func runCoordinator(addr, spool string, workers int, maxBody int64, maxJobs, maxActive int, drain, leaseTTL time.Duration) error {
	if maxJobs <= 0 {
		maxJobs = defaultMaxJobs
	}
	srv, err := service.Open(spool,
		service.Workers(workers),
		service.MaxBodyBytes(maxBody),
		service.MaxExpandedJobs(maxJobs),
		service.MaxActiveSweeps(maxActive),
		service.DrainTimeout(drain),
		service.LeaseTTL(leaseTTL),
	)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout (flushed before serving) so
	// scripts using port 0 can find the server.
	fmt.Printf("rotord: listening on %s (spool %s, %d workers)\n", ln.Addr(), spool, srv.NumWorkers())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	// Graceful stop: finish in-flight responses briefly, then drain the
	// pool under the bounded deadline via srv.Close (deferred). A SIGKILL
	// skips all of this and still loses nothing but in-flight rows — the
	// spool resumes them, quarantining anything a crash left half-written.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func runWorker(addr, join, name string, parallel int) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: join,
		Name:        name,
		Parallel:    parallel,
		Version:     version.Version,
		Pid:         os.Getpid(),
		Logf:        log.Printf,
	})

	// The worker serves only its own observability endpoints (/healthz,
	// /metrics); all work arrives by pulling leases from the coordinator,
	// so nothing needs to reach the worker's listener for it to function.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("rotord: listening on %s (worker %s -> %s)\n", ln.Addr(), name, join)

	httpSrv := &http.Server{Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		cancel()
		return err
	case err := <-runErr:
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	case <-sig:
	}
	// A dying worker just stops pulling leases; anything it held past its
	// deadline is reassigned by the coordinator, byte-identically.
	cancel()
	<-runErr
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
