// Command simd serves interval simulation as a service: submit declarative
// scenario specs over HTTP, poll (or stream) job status, and let the
// content-addressed result cache turn repeated design-space queries into
// cache hits.
//
//	simd -addr :8080 -j 4 -queue-depth 64 -cache-dir /var/cache/simd
//
//	curl -s localhost:8080/v1/catalog
//	curl -s -X POST localhost:8080/v1/jobs -d '{"bench":"gcc","fabric":"mesh"}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -N  localhost:8080/v1/jobs/<id>/events
//
// With -tiered, fresh queries are answered in well under a second from
// the statistical engine (a synthetic clone of the profiled workload)
// while the full interval run proceeds in the background; the job
// document, SSE stream and cache entry are upgraded in place when it
// lands, and every answer reports the tier that produced it.
//
// # Fleet mode
//
// One simd can fan jobs out to others (see docs/fleet.md):
//
//	simd -addr :8080 -coordinator                 # the front end
//	simd -addr :8081 -worker http://co:8080       # each worker node
//
// The coordinator shards jobs across registered workers by scenario
// fingerprint, holds time-bounded leases renewed by worker heartbeats,
// retries transient failures with backoff, reassigns jobs whose worker
// went quiet, and — with zero workers — degrades to running jobs
// locally. Workers register on start, heartbeat at the advertised
// interval, and deregister on clean shutdown. -chaos arms deterministic
// fault injection on a worker (kill mid-run, drop heartbeats, corrupt or
// delay deliveries) for resilience drills.
//
// SIGINT/SIGTERM stops accepting work, drains queued and in-flight jobs
// (up to -drain-timeout) and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/simd"
	"repro/internal/simrun"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is simd with its arguments, output streams and shutdown signal
// passed in; it serves until ctx is done and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("simd", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		addr    = fl.String("addr", ":8080", "listen address")
		jobs    = fl.Int("j", 0, "host worker goroutines (0 = all host cores)")
		depth   = fl.Int("queue-depth", 64, "bounded job-queue depth")
		dir     = fl.String("cache-dir", "", "persist result payloads under this directory (empty = memory only)")
		entries = fl.Int("cache-entries", 256, "in-memory result-cache capacity")
		tiered  = fl.Bool("tiered", false, "answer from the cheapest fidelity tier immediately and upgrade in the background")
		drain   = fl.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for queued and in-flight jobs")
		pprofOn = fl.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")

		coordOn   = fl.Bool("coordinator", false, "dispatch jobs to fleet workers (with local fallback when none are registered)")
		leaseTTL  = fl.Duration("lease-ttl", 5*time.Second, "coordinator: how long worker leases survive without a heartbeat")
		workerURL = fl.String("worker", "", "run as a fleet worker for the coordinator at this base URL (replaces the job API)")
		advertise = fl.String("advertise", "", "worker: base URL the coordinator dials this worker at (default http://127.0.0.1<addr>)")
		workerID  = fl.String("worker-id", "", "worker: identity in the fleet (default <hostname>-<pid>)")
		chaos     = fl.String("chaos", "", "worker: arm deterministic fault injection, e.g. kill-run=2,drop-heartbeats=all,corrupt-run=1,delay-result=50ms")

		cpuprofile = fl.String("cpuprofile", "", "write a CPU profile to this file, flushed when the SIGTERM drain completes")
		memprofile = fl.String("memprofile", "", "write a heap profile to this file, flushed when the SIGTERM drain completes")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *coordOn && *workerURL != "":
		fmt.Fprintln(stderr, "simd: -coordinator and -worker are mutually exclusive")
		return 2
	case *coordOn && *tiered:
		fmt.Fprintln(stderr, "simd: -tiered is a single-node serving feature; it cannot combine with -coordinator")
		return 2
	case *chaos != "" && *workerURL == "":
		fmt.Fprintln(stderr, "simd: -chaos only applies to -worker mode")
		return 2
	}
	// Profiles are flushed when run returns: after the drain on a
	// signal, and on every error exit.
	flush, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer flush()

	cache, err := simrun.NewCache(simrun.CacheOpts{
		Entries:    *entries,
		Dir:        *dir,
		Encode:     simd.Encode,
		DecodeTier: simd.DecodeTier,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *workerURL != "" {
		return runWorker(ctx, stdout, stderr, workerOpts{
			addr:      *addr,
			coord:     *workerURL,
			advertise: *advertise,
			id:        *workerID,
			chaos:     *chaos,
			cache:     cache,
		})
	}

	var coord *fleet.Coordinator
	if *coordOn {
		coord, err = fleet.NewCoordinator(fleet.Config{Cache: cache, LeaseTTL: *leaseTTL})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	server, err := simd.New(simd.Config{Workers: *jobs, QueueDepth: *depth, Cache: cache, TieredServing: *tiered, Pprof: *pprofOn, Fleet: coord})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	handler := server.Handler()
	if coord != nil {
		// The fleet control plane rides the same listener as the job API:
		// workers register against the address clients submit to.
		mux := http.NewServeMux()
		coord.Mount(mux)
		mux.Handle("/", handler)
		handler = mux
	}

	httpServer := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	fmt.Fprintf(stdout, "simd: listening on %s (workers=%d queue=%d cache=%d entries", *addr, *jobs, *depth, *entries)
	if *dir != "" {
		fmt.Fprintf(stdout, ", dir=%s", *dir)
	}
	if coord != nil {
		fmt.Fprintf(stdout, ", coordinator lease-ttl=%s", *leaseTTL)
	}
	fmt.Fprintln(stdout, ")")

	select {
	case err := <-errc:
		// The listener failed before any signal: a bad -addr or a
		// port conflict.
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "simd: draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := server.Drain(drainCtx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "simd: drain incomplete: %v\n", drainErr)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "simd: shutdown: %v\n", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed
	fmt.Fprintln(stdout, "simd: bye")
	if drainErr != nil {
		return 1
	}
	return 0
}

// workerOpts carries the worker-mode configuration.
type workerOpts struct {
	addr      string
	coord     string
	advertise string
	id        string
	chaos     string
	cache     *simrun.Cache
}

// runWorker serves the fleet data plane and runs the registration +
// heartbeat loop until the signal context cancels, then deregisters and
// shuts the listener down. Returns the process exit code.
func runWorker(ctx context.Context, stdout, stderr io.Writer, o workerOpts) int {
	faults, err := fleet.ParseFaults(o.chaos)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	id := o.id
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	self := o.advertise
	if self == "" {
		// A bare ":8081" listen address dials back on loopback; anything
		// with a host is advertised as-is.
		if len(o.addr) > 0 && o.addr[0] == ':' {
			self = "http://127.0.0.1" + o.addr
		} else {
			self = "http://" + o.addr
		}
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:          id,
		SelfURL:     self,
		Coordinator: o.coord,
		Cache:       o.cache,
		Faults:      faults,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	httpServer := &http.Server{Addr: o.addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	loop := make(chan error, 1)
	go func() { loop <- w.Start(ctx) }()
	fmt.Fprintf(stdout, "simd: worker %s on %s (coordinator=%s advertise=%s", id, o.addr, o.coord, self)
	if o.chaos != "" {
		fmt.Fprintf(stdout, ", chaos=%s", o.chaos)
	}
	fmt.Fprintln(stdout, ")")

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}
	if err := <-loop; err != nil {
		fmt.Fprintf(stderr, "simd: worker loop: %v\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "simd: worker shutdown: %v\n", err)
	}
	<-errc
	fmt.Fprintln(stdout, "simd: worker bye")
	return 0
}
