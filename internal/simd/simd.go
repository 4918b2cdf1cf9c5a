// Package simd turns the simrun library into a long-running
// simulation-as-a-service: an HTTP JSON API over a bounded job queue, a
// host worker pool, and the simrun content-addressed result cache, so
// repeated scenario queries cost one simulation instead of N.
//
// Interval simulation is fast enough (seconds per scenario) that online,
// interactive design-space exploration through a service front end is
// practical — the paper's "cull a large design space quickly" workflow as
// an API instead of a batch job.
//
// Endpoints:
//
//	POST /v1/jobs            submit a simrun.Spec; 202 + job doc (200 if deduplicated)
//	GET  /v1/jobs            list job ids and statuses
//	GET  /v1/jobs/{id}       job status/result document
//	GET  /v1/jobs/{id}/events  SSE stream of job-status transitions and progress heartbeats
//	GET  /v1/jobs/{id}/trace   the job's recorded lifecycle spans (queue, engine runs, upgrade)
//	GET  /v1/catalog         core models, knob sets, benchmark profiles
//	GET  /healthz            liveness (503 while draining)
//	GET  /metrics            Prometheus text exposition (server registry merged with obs.Default)
//
// Jobs are content-addressed: the job ID derives from the scenario
// fingerprint, so two identical submissions share one job, and the
// result cache guarantees the simulator runs the scenario exactly once.
package simd

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simrun"
)

// Config sizes the service.
type Config struct {
	// Workers is the host worker-pool size (<=0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (<=0 selects 64). A full queue rejects submissions with 429.
	QueueDepth int
	// MaxJobs bounds the job table (<=0 selects 1024): once exceeded,
	// the oldest finished jobs are evicted, so a long-running server's
	// memory stays bounded. Evicted jobs 404 on lookup, but their
	// results remain available through the cache: resubmitting the
	// same spec is a cache hit, not a re-simulation.
	MaxJobs int
	// Cache is the shared result cache; nil builds a default in-memory
	// cache with the report.JSON encoder.
	Cache *simrun.Cache
	// TieredServing answers fresh submissions from the cheapest
	// registered engine that supports the scenario (sub-second
	// statistical estimates for scenarios whose full run takes tens of
	// seconds), then runs the full simulation in the background and
	// upgrades the job document and cache entry in place when it lands.
	// Off by default: every job then runs its spec's engine directly.
	// Specs that pin an engine explicitly are always honored verbatim,
	// tiered or not. Build the cache with DecodeTier so a restart never
	// serves a persisted estimate as definitive.
	TieredServing bool
	// Pprof mounts net/http/pprof's handlers under /debug/pprof/ on the
	// service handler. Off by default: profiling endpoints expose host
	// internals and cost nothing when unmounted.
	Pprof bool
	// Fleet, when set, routes every job through the coordinator instead
	// of the local cache: dispatch to HTTP-registered workers with
	// leases, retries and reassignment, degrading to a local run when
	// the fleet is empty. Build the coordinator over the same Cache so
	// results land in one content-addressed store either way. Fleet and
	// TieredServing are mutually exclusive (tiering is a single-node
	// serving feature); Fleet wins if both are set.
	Fleet *fleet.Coordinator
}

// Server is the service state: job table, bounded queue, worker pool and
// result cache. Create with New, serve via Handler, stop with Drain.
type Server struct {
	cache   *simrun.Cache
	queue   chan *Job
	workers int
	maxJobs int
	tiered  bool
	pprof   bool
	fleet   *fleet.Coordinator
	reg     *obs.Registry

	// runCtx gates in-flight simulations: Drain cancels it only when
	// its own context expires, turning a graceful drain into a hard
	// stop.
	runCtx    context.Context
	runCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job  // by job ID
	live     map[liveKey]*Job // live (non-failed) job per fingerprint and engine request
	order    []string         // job IDs in submission order
	draining bool

	wg sync.WaitGroup

	submitted atomic.Uint64 // accepted jobs (new scenarios)
	deduped   atomic.Uint64 // submissions that joined an existing job
	rejected  atomic.Uint64 // queue-full rejections
	completed atomic.Uint64
	failed    atomic.Uint64
	fast      atomic.Uint64 // jobs answered below full fidelity
	upgraded  atomic.Uint64 // background upgrades that landed
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cache := cfg.Cache
	if cache == nil {
		var err error
		cache, err = simrun.NewCache(simrun.CacheOpts{Encode: Encode, DecodeTier: DecodeTier})
		if err != nil {
			return nil, err
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cache:     cache,
		queue:     make(chan *Job, depth),
		workers:   workers,
		maxJobs:   maxJobs,
		tiered:    cfg.TieredServing && cfg.Fleet == nil,
		pprof:     cfg.Pprof,
		fleet:     cfg.Fleet,
		reg:       obs.NewRegistry(),
		runCtx:    ctx,
		runCancel: cancel,
		jobs:      map[string]*Job{},
		live:      map[liveKey]*Job{},
	}
	s.registerMetrics()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.process(job)
	}
}

// process runs one job through the cache and publishes the outcome.
// Under tiered serving, jobs that did not pin an engine are answered from
// the cheapest supporting tier first, with the full run upgrading the job
// and cache entry in the background.
func (s *Server) process(job *Job) {
	job.pickup()
	job.setStatus(StatusRunning, "", "", nil, "")
	if s.fleet != nil {
		s.processFleet(job)
		return
	}
	if s.tiered && !job.scenario.EnginePinned() && s.processTiered(job) {
		return
	}
	entry, err := s.cache.GetOrRun(s.runCtx, job.scenario)
	if err != nil {
		s.failed.Add(1)
		s.forget(job)
		job.setStatus(StatusFailed, entry.Source, entry.Tier, nil, err.Error())
		return
	}
	s.completed.Add(1)
	job.setStatus(StatusDone, entry.Source, entry.Tier, entry.Payload, "")
}

// processFleet routes the job through the coordinator: dispatch to a
// registered worker under a lease, retrying and reassigning on failure,
// or a local run when the fleet is empty. Every dispatch event lands on
// the job document (worker, attempt) so the SSE stream shows the job
// hopping workers during a chaos event.
func (s *Server) processFleet(job *Job) {
	entry, err := s.fleet.Run(s.runCtx, job.scenario, fleet.RunOpts{
		Spec:   job.spec,
		Tracer: job.tracer,
		OnDispatch: func(d fleet.Dispatch) {
			job.setDispatch(d.Worker, d.Attempt, d.Event)
		},
	})
	if err != nil {
		s.failed.Add(1)
		s.forget(job)
		job.setStatus(StatusFailed, entry.Source, entry.Tier, nil, err.Error())
		return
	}
	s.completed.Add(1)
	job.setStatus(StatusDone, entry.Source, entry.Tier, entry.Payload, "")
}

// processTiered answers the job from the cheapest supporting engine and
// schedules the background upgrade. It reports false when there is no
// cheaper tier (or the estimate failed), in which case the caller falls
// back to the ordinary full-fidelity path.
func (s *Server) processTiered(job *Job) bool {
	cheap := simrun.CheapestEngineFor(job.scenario)
	if cheap.Name == simrun.DefaultEngine {
		return false
	}
	est, err := job.scenario.ForEngine(cheap.Name)
	if err != nil {
		return false
	}
	entry, err := s.cache.GetOrRun(s.runCtx, est)
	if err != nil {
		return false
	}
	if entry.Tier.AtLeast(job.scenario.AnswerTier()) {
		// The one cache slot already held a full-fidelity answer — the
		// cheap request was satisfied at the higher tier, nothing to
		// upgrade.
		s.completed.Add(1)
		job.setStatus(StatusDone, entry.Source, entry.Tier, entry.Payload, "")
		return true
	}
	// Publish the estimate now; upgrade the same job (and the same
	// cache slot — the fingerprint is tier-independent) when the full
	// run lands. The upgrade goroutine joins the worker WaitGroup so
	// Drain waits for in-flight upgrades, and runCtx still hard-stops
	// them when the drain deadline expires.
	job.markUpgradePending()
	s.fast.Add(1)
	s.completed.Add(1)
	job.setStatus(StatusDone, entry.Source, entry.Tier, entry.Payload, "")
	s.wg.Add(1)
	go s.upgradeJob(job)
	return true
}

// upgradeJob runs the job's scenario at full fidelity and settles the
// pending upgrade: the cache entry was already upgraded in place by
// GetOrRun's store, and the job document follows here.
func (s *Server) upgradeJob(job *Job) {
	defer s.wg.Done()
	entry, err := s.cache.GetOrRun(s.runCtx, job.scenario)
	// The "upgrade" span covers only the settle: the full run itself is
	// already traced as its own engine span, so the job's trace reads
	// queue → engine:<cheap> → engine:full → upgrade.
	sp := job.tracer.Start("upgrade")
	defer sp.End()
	if err != nil {
		job.settle("", "", nil)
		return
	}
	s.upgraded.Add(1)
	job.settle(entry.Source, entry.Tier, entry.Payload)
}

// liveKey is what a submission must share with a live job to join it: the
// fingerprint, and the engine request — the same pinned engine, or none.
// One fingerprint is many answers: a spec pinned to "statistical" must not
// be answered by a full run, nor a spec pinned to "full" by an estimate
// (Config.TieredServing honors pins verbatim). The cache's per-tier flights
// still simulate each tier once.
type liveKey struct{ fingerprint, engine string }

func (j *Job) liveKey() liveKey { return liveKey{j.fingerprint, j.spec.Engine} }

// forget drops a failed job from the live set, so a retry runs afresh.
func (s *Server) forget(job *Job) {
	s.mu.Lock()
	if s.live[job.liveKey()] == job {
		delete(s.live, job.liveKey())
	}
	s.mu.Unlock()
}

// SubmitSpec validates and enqueues a scenario spec. The bool reports
// whether the submission was deduplicated onto an existing job.
func (s *Server) SubmitSpec(spec simrun.Spec) (*Job, bool, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return nil, false, &BadRequestError{Err: err}
	}
	fp, err := sc.Fingerprint()
	if err != nil {
		return nil, false, &BadRequestError{Err: err}
	}

	key := liveKey{fp, spec.Engine}
	s.mu.Lock()
	defer s.mu.Unlock()
	if job, ok := s.live[key]; ok {
		s.deduped.Add(1)
		return job, true, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	// Failed attempts keep their job documents, so retries need fresh
	// IDs: suffix the content address with the attempt number.
	id := "j-" + fp[:16]
	for attempt := 2; ; attempt++ {
		if _, taken := s.jobs[id]; !taken {
			break
		}
		id = fmt.Sprintf("j-%s.%d", fp[:16], attempt)
	}
	job := newJob(id, fp, spec, sc)
	select {
	case s.queue <- job:
	default:
		s.rejected.Add(1)
		return nil, false, ErrQueueFull
	}
	s.jobs[id] = job
	s.live[key] = job
	s.order = append(s.order, id)
	s.submitted.Add(1)
	s.evictLocked()
	return job, false, nil
}

// evictLocked drops the oldest finished jobs until the table is back
// under maxJobs. Live jobs (queued/running) are never evicted — the
// queue bound keeps their number finite. Called with s.mu held.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.maxJobs {
		return
	}
	var kept []string
	for _, id := range s.order {
		job := s.jobs[id]
		if len(s.jobs) > s.maxJobs && job.Doc().Status.terminal() {
			delete(s.jobs, id)
			if s.live[job.liveKey()] == job {
				delete(s.live, job.liveKey())
			}
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// Jobs snapshots every job document in submission order.
func (s *Server) Jobs() []JobDoc {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	docs := make([]JobDoc, len(jobs))
	for i, j := range jobs {
		docs[i] = j.Doc()
	}
	return docs
}

// Drain stops accepting submissions, lets the workers finish every
// queued and in-flight job, and returns nil once the pool is idle. If
// ctx expires first, in-flight simulations are interrupted (they record
// partial results and fail their jobs) and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.runCancel()
		<-idle
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueLen is the number of jobs waiting for a worker.
func (s *Server) QueueLen() int { return len(s.queue) }

// CacheStats exposes the result-cache counters.
func (s *Server) CacheStats() simrun.CacheStats { return s.cache.Stats() }

// BadRequestError marks a submission the client got wrong (invalid spec);
// the HTTP layer maps it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// ErrQueueFull rejects submissions when the bounded queue is at depth.
var ErrQueueFull = fmt.Errorf("simd: job queue full")

// ErrDraining rejects submissions during shutdown.
var ErrDraining = fmt.Errorf("simd: server is draining")
