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
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	// Register the estimator engine ("statistical") so tiered serving
	// has a cheap tier to answer from and specs may pin it explicitly.
	_ "repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/simd"
	"repro/internal/simrun"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		jobs    = flag.Int("j", 0, "host worker goroutines (0 = all host cores)")
		depth   = flag.Int("queue-depth", 64, "bounded job-queue depth")
		dir     = flag.String("cache-dir", "", "persist result payloads under this directory (empty = memory only)")
		entries = flag.Int("cache-entries", 256, "in-memory result-cache capacity")
		tiered  = flag.Bool("tiered", false, "answer from the cheapest fidelity tier immediately and upgrade in the background")
		drain   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for queued and in-flight jobs")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		jobTr   = flag.Bool("job-trace", true, "record per-job lifecycle spans served at /v1/jobs/{id}/trace")

		coordOn     = flag.Bool("coordinator", false, "dispatch jobs to fleet workers (with local fallback when none are registered)")
		leaseTTL    = flag.Duration("lease-ttl", 5*time.Second, "coordinator: how long worker leases survive without a heartbeat")
		scrapeEvery = flag.Duration("scrape-every", 5*time.Second, "coordinator: how often to scrape each worker's /metrics into /fleet/v1/metrics")
		workerURL   = flag.String("worker", "", "run as a fleet worker for the coordinator at this base URL (replaces the job API)")
		advertise   = flag.String("advertise", "", "worker: base URL the coordinator dials this worker at (default http://127.0.0.1<addr>)")
		workerID    = flag.String("worker-id", "", "worker: identity in the fleet (default <hostname>-<pid>)")
		beatEvery   = flag.Duration("heartbeat", 0, "worker: heartbeat interval (0 = accept the coordinator's advertisement)")
		chaos       = flag.String("chaos", "", "worker: arm deterministic fault injection, e.g. kill-run=2,drop-heartbeats=all,corrupt-run=1,delay-result=50ms")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file, flushed when the SIGTERM drain completes")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file, flushed when the SIGTERM drain completes")
	)
	flag.Parse()
	switch {
	case *coordOn && *workerURL != "":
		fmt.Fprintln(os.Stderr, "simd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	case *coordOn && *tiered:
		fmt.Fprintln(os.Stderr, "simd: -tiered is a single-node serving feature; it cannot combine with -coordinator")
		os.Exit(2)
	case *chaos != "" && *workerURL == "":
		fmt.Fprintln(os.Stderr, "simd: -chaos only applies to -worker mode")
		os.Exit(2)
	}
	flush, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer flush()

	cache, err := simrun.NewCache(simrun.CacheOpts{
		Entries:    *entries,
		Dir:        *dir,
		Encode:     simd.Encode,
		DecodeTier: simd.DecodeTier,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerURL != "" {
		os.Exit(runWorker(ctx, workerOpts{
			addr:      *addr,
			coord:     *workerURL,
			advertise: *advertise,
			id:        *workerID,
			beat:      *beatEvery,
			chaos:     *chaos,
			cache:     cache,
			flush:     flush,
		}))
	}

	var coord *fleet.Coordinator
	if *coordOn {
		coord, err = fleet.NewCoordinator(fleet.Config{Cache: cache, LeaseTTL: *leaseTTL, ScrapeEvery: *scrapeEvery})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The federation scraper runs for the serving lifetime; the
		// signal context that stops intake stops it too.
		go coord.ScrapeLoop(ctx)
	}
	server, err := simd.New(simd.Config{Workers: *jobs, QueueDepth: *depth, Cache: cache, TieredServing: *tiered, Pprof: *pprofOn, DisableJobTraces: !*jobTr, Fleet: coord})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
	fmt.Printf("simd: listening on %s (workers=%d queue=%d cache=%d entries", *addr, *jobs, *depth, *entries)
	if *dir != "" {
		fmt.Printf(", dir=%s", *dir)
	}
	if coord != nil {
		fmt.Printf(", coordinator lease-ttl=%s", *leaseTTL)
	}
	fmt.Println(")")

	select {
	case err := <-errc:
		// The listener failed before any signal: a bad -addr or a
		// port conflict.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("simd: draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := server.Drain(drainCtx)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "simd: drain incomplete: %v\n", drainErr)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "simd: shutdown: %v\n", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed
	// Flush profiles now that the drain is over: the profile covers the
	// serving lifetime and survives the non-zero exit below, which would
	// skip the deferred flush.
	flush()
	fmt.Println("simd: bye")
	if drainErr != nil {
		os.Exit(1)
	}
}

// workerOpts carries the worker-mode configuration.
type workerOpts struct {
	addr      string
	coord     string
	advertise string
	id        string
	beat      time.Duration
	chaos     string
	cache     *simrun.Cache
	flush     func()
}

// runWorker serves the fleet data plane and runs the registration +
// heartbeat loop until the signal context cancels, then deregisters and
// shuts the listener down. Returns the process exit code.
func runWorker(ctx context.Context, o workerOpts) int {
	faults, err := fleet.ParseFaults(o.chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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
		ID:             id,
		SelfURL:        self,
		Coordinator:    o.coord,
		Cache:          o.cache,
		Faults:         faults,
		HeartbeatEvery: o.beat,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	httpServer := &http.Server{Addr: o.addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	loop := make(chan error, 1)
	go func() { loop <- w.Start(ctx) }()
	fmt.Printf("simd: worker %s on %s (coordinator=%s advertise=%s", id, o.addr, o.coord, self)
	if o.chaos != "" {
		fmt.Printf(", chaos=%s", o.chaos)
	}
	fmt.Println(")")

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	}
	if err := <-loop; err != nil {
		fmt.Fprintf(os.Stderr, "simd: worker loop: %v\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "simd: worker shutdown: %v\n", err)
	}
	<-errc
	o.flush()
	fmt.Println("simd: worker bye")
	return 0
}
