// Package fleet scales the simulation service from one process to a
// coordinator/worker fleet, with fault tolerance as the contract: a
// worker crash, a hung job or a corrupted result delivery must never
// lose or corrupt an answer.
//
// Topology: one coordinator owns job intake and the content-addressed
// result cache; any number of workers register with it over HTTP and
// simulate. Jobs are sharded across live workers by rendezvous hashing
// of the v2 scenario fingerprint, so the assignment is deterministic
// for a given worker set and re-balances minimally when the set
// changes.
//
// Robustness mechanisms, and why at-least-once dispatch is safe here:
//
//   - Leases. A dispatched job is a time-bounded lease on its worker,
//     renewed implicitly by the worker's heartbeats. When heartbeats
//     stop (crash, partition, injected fault), the lease expires, the
//     in-flight request is abandoned and the job is reassigned to
//     another worker.
//   - Retries. Transient dispatch failures (5xx, connection
//     refused/reset, severed connections) retry under capped
//     exponential backoff with deterministic jitter, bounded by a
//     per-job deadline and attempt budget.
//   - Dedup of duplicate completions. Results are content-addressed by
//     the scenario fingerprint and byte-deterministic, so two workers
//     finishing the same reassigned job deliver byte-identical
//     payloads; the cache's upgrade-only store makes the second
//     delivery a no-op instead of a conflict.
//   - Integrity. Workers stamp each result delivery with its SHA-256;
//     a corrupt delivery is detected, counted, and re-dispatched, never
//     cached.
//   - Graceful degradation. With zero live workers the coordinator
//     runs the job on the local engine registry itself — a fleet of
//     none serves exactly like the single-process service.
//
// Every recovery path is exercised deterministically through
// FaultInjector, the chaos seam wired into the worker (and the
// cmd/simd -chaos flag).
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simrun"
)

// Wire paths of the fleet control plane (mounted on the coordinator)
// and data plane (mounted on each worker).
const (
	PathRegister   = "/fleet/v1/register"
	PathHeartbeat  = "/fleet/v1/heartbeat"
	PathDeregister = "/fleet/v1/deregister"
	PathRun        = "/fleet/v1/run"
	// PathMetrics serves the coordinator's federated view of every
	// worker's /metrics (plus its own), one exposition payload with
	// worker labels and aggregate rollups.
	PathMetrics = "/fleet/v1/metrics"
	// PathStatus serves the live fleet status snapshot as JSON.
	PathStatus = "/fleet/v1/status"
)

// Result-delivery headers: the fidelity tier of the payload and its
// SHA-256, computed by the worker before the bytes hit the wire so the
// coordinator can reject deliveries corrupted in transit.
const (
	HeaderTier = "X-Fleet-Tier"
	HeaderSum  = "X-Fleet-Sum"
)

// Trace-propagation headers. The coordinator mints a trace id per job
// and a span id per dispatch attempt and stamps them on the run
// request; a worker that sees them runs the job under a per-request
// tracer and returns its spans — compact JSON, base64, bounded — in
// X-Fleet-Spans on the response. The spans ride a header, never the
// body: the payload stays byte-identical to a local run, which the
// X-Fleet-Sum checksum and the dedup contract both depend on.
const (
	HeaderTrace = "X-Fleet-Trace"
	HeaderSpan  = "X-Fleet-Span"
	HeaderSpans = "X-Fleet-Spans"
)

// registration is the register request body and lease advertisement
// response: the coordinator tells the worker how often to heartbeat and
// how long its leases live.
type registration struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

type leaseTerms struct {
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

type heartbeat struct {
	ID string `json:"id"`
}

// Config sizes a Coordinator.
type Config struct {
	// Cache is the coordinator's content-addressed result store —
	// required. It serves three duties: answer repeated submissions
	// without dispatching, dedupe duplicate completions of reassigned
	// jobs (upgrade-only Put), and run jobs locally when the fleet is
	// empty.
	Cache *simrun.Cache
	// LeaseTTL is how long a worker's leases survive without a
	// heartbeat (<=0 selects 5s). Workers are told to heartbeat at a
	// third of this.
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatch attempts per job before degrading to
	// a local run (<=0 selects 4).
	MaxAttempts int
	// JobDeadline bounds one job's whole dispatch lifecycle, local
	// fallback included (0 = only the caller's context bounds it).
	JobDeadline time.Duration
	// Retry shapes the backoff between dispatch attempts.
	Retry Backoff
	// ScrapeEvery is the metrics-federation scrape interval driven by
	// ScrapeLoop (<=0 selects 5s). A worker whose last successful scrape
	// is older than twice this is marked stale in the federated output.
	ScrapeEvery time.Duration
	// Registry receives the fleet metrics (nil selects obs.Default()).
	Registry *obs.Registry
	// Client performs dispatch and control-plane requests (nil builds a
	// default one). Per-request contexts bound each call, so the client
	// needs no global timeout.
	Client *http.Client
}

// Coordinator owns the worker pool and job dispatch. Create with
// NewCoordinator, expose the control plane with Mount, dispatch with
// Run.
type Coordinator struct {
	cache       *simrun.Cache
	leaseTTL    time.Duration
	maxAttempts int
	jobDeadline time.Duration
	retry       Backoff
	scrapeEvery time.Duration
	client      *http.Client

	mu      sync.Mutex
	workers map[string]*workerState
	// tids assigns each worker a stable trace row (1-based; row 0 is the
	// coordinator itself). Rows outlive the worker's registration so a
	// worker that dies and a replacement that finishes the job land on
	// distinct, consistently-labeled tracks.
	tids    map[string]int
	nextTID int
	// scrapes holds each worker's last federation scrape (and when it
	// succeeded); entries outlive deregistration so the federated view
	// can keep serving a dead worker's last-known-good samples, marked
	// stale.
	scrapes map[string]*scrapeState
	// stats accumulates per-worker dispatch accounting for the status
	// surface; like scrapes, entries survive worker loss.
	stats map[string]*workerStats

	mDispatches    *obs.Counter
	mRetries       *obs.Counter
	mReassigns     *obs.Counter
	mLeaseExpiry   *obs.Counter
	mCorrupt       *obs.Counter
	mLocalRuns     *obs.Counter
	mCompletions   *obs.Counter
	mDupComplete   *obs.Counter
	mRegistered    *obs.Counter
	mDeregistered  *obs.Counter
	mScrapes       *obs.Counter
	mScrapeFailure *obs.Counter
	hDispatch      *obs.Histogram
}

// workerState is the coordinator's view of one registered worker. The
// lastBeat timestamp is the lease clock: every lease held by the worker
// expires LeaseTTL after its most recent heartbeat.
type workerState struct {
	id, url  string
	lastBeat time.Time
}

// NewCoordinator builds a coordinator over the given cache.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a result cache")
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	scrapeEvery := cfg.ScrapeEvery
	if scrapeEvery <= 0 {
		scrapeEvery = 5 * time.Second
	}
	c := &Coordinator{
		cache:       cfg.Cache,
		leaseTTL:    ttl,
		maxAttempts: attempts,
		jobDeadline: cfg.JobDeadline,
		retry:       cfg.Retry,
		scrapeEvery: scrapeEvery,
		client:      client,
		workers:     map[string]*workerState{},
		tids:        map[string]int{},
		scrapes:     map[string]*scrapeState{},
		stats:       map[string]*workerStats{},
	}
	r := cfg.Registry
	if r == nil {
		r = obs.Default()
	}
	r.GaugeFunc("fleet_workers",
		"Registered workers with a live lease (heartbeat within the TTL).",
		func() float64 { return float64(c.Workers()) })
	c.mDispatches = r.Counter("fleet_dispatches_total",
		"Job dispatch attempts sent to workers.")
	c.mRetries = r.Counter("fleet_retries_total",
		"Dispatch attempts retried after a transient failure (5xx, backpressure, corrupt delivery).")
	c.mReassigns = r.Counter("fleet_reassignments_total",
		"Jobs moved to a different worker after losing the one they were on.")
	c.mLeaseExpiry = r.Counter("fleet_lease_expiries_total",
		"Job leases that expired because the holding worker stopped heartbeating.")
	c.mCorrupt = r.Counter("fleet_corrupt_results_total",
		"Result deliveries rejected by the integrity checksum.")
	c.mLocalRuns = r.Counter("fleet_local_runs_total",
		"Jobs served by the coordinator's local engine (zero workers, or every dispatch attempt failed).")
	c.mCompletions = r.Counter("fleet_completions_total",
		"Worker result deliveries accepted into the cache.")
	c.mDupComplete = r.Counter("fleet_duplicate_completions_total",
		"Result deliveries deduplicated against an already-cached answer (at-least-once dispatch landing twice).")
	c.mRegistered = r.Counter("fleet_worker_registrations_total",
		"Worker register calls accepted (including re-registrations).")
	c.mDeregistered = r.Counter("fleet_worker_deregistrations_total",
		"Workers that deregistered cleanly.")
	c.mScrapes = r.Counter("fleet_scrapes_total",
		"Worker metrics scrapes attempted by the federation loop.")
	c.mScrapeFailure = r.Counter("fleet_scrape_failures_total",
		"Worker metrics scrapes that failed (the worker's last-known-good samples go stale).")
	c.hDispatch = r.Histogram("fleet_dispatch_seconds",
		"Wall time of individual dispatch attempts, success or failure.",
		[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	return c, nil
}

// Mount attaches the coordinator's control plane (register, heartbeat,
// deregister) and observability surface (federated metrics, fleet
// status) to mux, alongside whatever else the process serves.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathDeregister, c.handleDeregister)
	mux.HandleFunc("GET "+PathMetrics, c.handleFleetMetrics)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
}

// maxBodyBytes bounds every request body the fleet's handlers read: the
// control-plane messages are a few dozen bytes, a dispatched spec a few
// kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// rejectOversized answers 413 when err says the request body ran past its
// bound, and reports whether it did.
func rejectOversized(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	http.Error(w, fmt.Sprintf("fleet: request body exceeds the %d-byte limit", tooLarge.Limit), http.StatusRequestEntityTooLarge)
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg registration
	err := decodeBody(w, r, &reg)
	if rejectOversized(w, err) {
		return
	}
	if err != nil || reg.ID == "" || reg.URL == "" {
		http.Error(w, "fleet: register wants {id, url}", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.workers[reg.ID] = &workerState{id: reg.ID, url: reg.URL, lastBeat: time.Now()}
	c.mu.Unlock()
	c.mRegistered.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(leaseTerms{
		LeaseTTLMillis:  c.leaseTTL.Milliseconds(),
		HeartbeatMillis: (c.leaseTTL / 3).Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb heartbeat
	err := decodeBody(w, r, &hb)
	if rejectOversized(w, err) {
		return
	}
	if err != nil || hb.ID == "" {
		http.Error(w, "fleet: heartbeat wants {id}", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	ws, ok := c.workers[hb.ID]
	if ok {
		// The heartbeat is the lease renewal: every lease held by this
		// worker now lives another TTL.
		ws.lastBeat = time.Now()
	}
	c.mu.Unlock()
	if !ok {
		// Unknown worker — likely a coordinator restart. The 404 tells
		// the worker to re-register rather than heartbeat into the void.
		http.Error(w, "fleet: unknown worker", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var hb heartbeat
	err := decodeBody(w, r, &hb)
	if rejectOversized(w, err) {
		return
	}
	if err != nil || hb.ID == "" {
		http.Error(w, "fleet: deregister wants {id}", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	_, ok := c.workers[hb.ID]
	delete(c.workers, hb.ID)
	c.mu.Unlock()
	if ok {
		c.mDeregistered.Inc()
	}
	w.WriteHeader(http.StatusNoContent)
}

// Workers counts registered workers whose lease clock is live.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ws := range c.workers {
		if time.Since(ws.lastBeat) <= c.leaseTTL {
			n++
		}
	}
	return n
}

// AssignedWorker is the worker the rendezvous hash shards key onto
// given the current live set ("" when the fleet is empty). Dispatch
// uses the same choice; exposed for introspection and tests.
func (c *Coordinator) AssignedWorker(key string) string {
	if w := c.pick(key, nil); w != nil {
		return w.id
	}
	return ""
}

// pick selects the live, not-yet-tried worker with the highest
// rendezvous score for key. Workers whose lease clock lapsed long ago
// (3x TTL) are forgotten entirely.
func (c *Coordinator) pick(key string, tried map[string]bool) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	var bestScore uint64
	var bestID string
	for id, ws := range c.workers {
		stale := time.Since(ws.lastBeat)
		if stale > 3*c.leaseTTL {
			delete(c.workers, id)
			continue
		}
		if stale > c.leaseTTL || tried[id] {
			continue
		}
		score := rendezvous(key, id)
		// Tie-break on the id so the choice is total and deterministic.
		if best == nil || score > bestScore || (score == bestScore && id < bestID) {
			best, bestScore, bestID = ws, score, id
		}
	}
	return best
}

// rendezvous is the highest-random-weight score of (key, worker).
func rendezvous(key, worker string) uint64 {
	sum := sha256.Sum256([]byte(key + "|" + worker))
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(sum[i])
	}
	return v
}

// WorkerIDs lists the registered worker ids, sorted, live or not.
func (c *Coordinator) WorkerIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// forget drops a worker whose lease expired; its jobs are reassigned by
// their dispatch loops.
func (c *Coordinator) forget(id string) {
	c.mu.Lock()
	delete(c.workers, id)
	c.mu.Unlock()
}

// Dispatch is one routing event in a job's life, surfaced into job
// documents and SSE streams by the serving layer.
type Dispatch struct {
	// Worker is the target worker id, or "local" for the degraded
	// in-process run.
	Worker string `json:"worker"`
	// Attempt numbers the dispatch attempts for this job, 1-based.
	Attempt int `json:"attempt"`
	// Event says why this dispatch happened: "dispatch" (first try),
	// "retry" (same worker, transient failure), "reassign" (previous
	// worker lost), "local" (graceful degradation).
	Event string `json:"event"`
}

// RunOpts carries per-job observability into Run.
type RunOpts struct {
	// Spec is the wire form of the scenario, forwarded verbatim to
	// workers. Required when workers are registered; a job without a
	// spec can still run locally.
	Spec simrun.Spec
	// Tracer, when set, records one "dispatch:<worker>" span per
	// attempt into the job's trace.
	Tracer *obs.Tracer
	// OnDispatch, when set, observes every routing event.
	OnDispatch func(Dispatch)
}

// errLeaseExpired marks a dispatch abandoned because the worker's
// heartbeats stopped while the request was in flight.
var errLeaseExpired = errors.New("fleet: lease expired (worker heartbeats stopped)")

// permanentError marks a dispatch failure that retrying cannot fix (the
// worker rejected the spec).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Run resolves one job with the fleet's full fault-tolerance contract:
// cache first, then dispatch to the sharded worker with leases and
// retries, reassigning on worker loss, and degrading to a local run
// when no worker can answer. The returned entry's payload is
// byte-identical to a local run of the same scenario — workers and the
// local engine encode results identically, which is what makes
// at-least-once dispatch safe.
func (c *Coordinator) Run(ctx context.Context, sc *simrun.Scenario, opts RunOpts) (simrun.CacheEntry, error) {
	if c.jobDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.jobDeadline)
		defer cancel()
	}
	key, err := sc.Fingerprint()
	if err != nil {
		// Uncacheable scenarios (explicit in-process streams) have no
		// wire form either; they run locally by construction.
		return c.localRun(ctx, sc, opts, 0)
	}
	if entry, ok := c.cache.Lookup(key, sc.AnswerTier()); ok {
		return entry, nil
	}
	body, err := json.Marshal(opts.Spec)
	if err != nil {
		return simrun.CacheEntry{}, fmt.Errorf("fleet: encoding spec: %w", err)
	}

	tried := map[string]bool{}
	event := "dispatch"
	attempt := 0
	for attempt < c.maxAttempts {
		if err := ctx.Err(); err != nil {
			return simrun.CacheEntry{Key: key}, err
		}
		w := c.pick(key, tried)
		if w == nil {
			// Zero live workers (or all of them already failed this
			// job): degrade gracefully to the local engine.
			break
		}
		attempt++
		c.notify(opts, Dispatch{Worker: w.id, Attempt: attempt, Event: event})
		payload, tier, derr := c.dispatch(ctx, w, key, body, opts.Tracer, attempt)
		if derr == nil {
			return c.complete(key, payload, tier, w.id), nil
		}
		var perm *permanentError
		if errors.As(derr, &perm) {
			return simrun.CacheEntry{Key: key}, perm.err
		}
		if ctx.Err() != nil {
			return simrun.CacheEntry{Key: key}, ctx.Err()
		}
		switch {
		case errors.Is(derr, errLeaseExpired):
			// The worker went silent mid-job: expire its leases, forget
			// it, and reassign. No backoff — the wait already happened.
			c.mLeaseExpiry.Inc()
			c.forget(w.id)
			tried[w.id] = true
			event = "reassign"
			c.mReassigns.Inc()
		case errors.Is(derr, errCorrupt), isStatusErr(derr):
			// The worker is alive but answered badly (5xx, backpressure,
			// corrupt delivery): retry — possibly on the same worker —
			// after the jittered backoff.
			c.mRetries.Inc()
			event = "retry"
			if !sleep(ctx, c.retry.Delay(key, attempt)) {
				return simrun.CacheEntry{Key: key}, ctx.Err()
			}
		default:
			// Transport failure: connection refused/reset or severed
			// mid-request — the signature of a dying worker. Exclude it
			// for this job and reassign after a short backoff.
			c.mRetries.Inc()
			tried[w.id] = true
			event = "reassign"
			c.mReassigns.Inc()
			if !sleep(ctx, c.retry.Delay(key, attempt)) {
				return simrun.CacheEntry{Key: key}, ctx.Err()
			}
		}
	}
	return c.localRun(ctx, sc, opts, attempt)
}

// sleep waits d or until ctx is done; it reports whether the full wait
// happened.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// localRun is the graceful-degradation path: the coordinator's own
// engine registry answers, through the same cache (so a later worker
// completion of the same job dedupes against it).
func (c *Coordinator) localRun(ctx context.Context, sc *simrun.Scenario, opts RunOpts, attempt int) (simrun.CacheEntry, error) {
	c.mLocalRuns.Inc()
	c.notify(opts, Dispatch{Worker: "local", Attempt: attempt + 1, Event: "local"})
	sp := opts.Tracer.Start("dispatch:local")
	defer sp.End()
	return c.cache.GetOrRun(ctx, sc)
}

func (c *Coordinator) notify(opts RunOpts, d Dispatch) {
	if opts.OnDispatch != nil {
		opts.OnDispatch(d)
	}
}

// complete accepts a worker's result delivery: an upgrade-only cache
// store, so a duplicate completion of a reassigned job (at-least-once
// dispatch landing twice) dedupes instead of conflicting. The payload
// bytes are content-addressed and deterministic, so the loser of the
// race is byte-identical to the winner either way.
func (c *Coordinator) complete(key string, payload []byte, tier simrun.Tier, worker string) simrun.CacheEntry {
	if c.cache.Put(key, payload, tier) {
		c.mCompletions.Inc()
	} else {
		c.mDupComplete.Inc()
	}
	return simrun.CacheEntry{
		Key:     key,
		Source:  simrun.CacheSource("worker:" + worker),
		Tier:    tier,
		Payload: payload,
	}
}

// errCorrupt marks a delivery whose payload did not match its checksum.
var errCorrupt = errors.New("fleet: result delivery failed the integrity checksum")

// statusErr is a non-2xx worker response.
type statusErr struct {
	status int
	body   string
}

func (e *statusErr) Error() string {
	return fmt.Sprintf("fleet: worker answered %d: %s", e.status, e.body)
}

func isStatusErr(err error) bool {
	var se *statusErr
	return errors.As(err, &se)
}

// dispatch sends one run request to one worker under a lease: the
// request is abandoned (and the job reassigned by the caller) the
// moment the worker's heartbeats lapse. The whole attempt is recorded
// as a "dispatch:<worker>" span in the job's trace; when tracing is on,
// the request carries X-Fleet-Trace/X-Fleet-Span so the worker records
// its half of the job and ships it back in X-Fleet-Spans, which is
// spliced here — shifted into this tracer's timebase, onto the worker's
// own trace row — nested inside the dispatch span (the worker's
// processing window is strictly contained in the request's RTT window,
// so the stitched trace stays monotonically consistent).
func (c *Coordinator) dispatch(ctx context.Context, w *workerState, key string, body []byte, tracer *obs.Tracer, attempt int) (payload []byte, tier simrun.Tier, err error) {
	tid := c.tidFor(w.id)
	sp := tracer.Start("dispatch:" + w.id)
	sp.Arg("attempt", int64(attempt))
	sp.Arg("row", int64(tid))
	c.mDispatches.Inc()
	c.noteDispatch(w.id, attempt)
	started := time.Now()
	defer func() {
		sp.End()
		c.hDispatch.Observe(time.Since(started).Seconds())
		c.noteDone(w.id, err == nil)
	}()

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	expired := c.watchLease(lctx, cancel, w.id)

	req, err := http.NewRequestWithContext(lctx, http.MethodPost, w.url+PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var sendUS int64
	if tracer != nil {
		tracer.NameTID(0, "coordinator")
		tracer.NameTID(tid, "worker:"+w.id)
		// The trace id is the job's fingerprint; the span id names this
		// attempt. The worker only needs their presence to trace, but the
		// ids make the dispatch greppable across both nodes' logs.
		req.Header.Set(HeaderTrace, key)
		req.Header.Set(HeaderSpan, fmt.Sprintf("%s#%d", w.id, attempt))
		// The worker's span clock starts when our request arrives, so its
		// offsets are relative to a point at or after this send timestamp.
		sendUS = tracer.Now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if expired.Load() {
			return nil, "", errLeaseExpired
		}
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if expired.Load() {
			return nil, "", errLeaseExpired
		}
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if TransientStatus(resp.StatusCode) {
			return nil, "", &statusErr{status: resp.StatusCode, body: msg}
		}
		return nil, "", &permanentError{err: &statusErr{status: resp.StatusCode, body: msg}}
	}
	if sum := resp.Header.Get(HeaderSum); sum != "" {
		if actual := sha256.Sum256(data); hex.EncodeToString(actual[:]) != sum {
			c.mCorrupt.Inc()
			return nil, "", errCorrupt
		}
	}
	if tracer != nil {
		if remote, derr := obs.DecodeSpans(resp.Header.Get(HeaderSpans)); derr == nil {
			tracer.Splice(remote, sendUS, tid)
		}
	}
	return data, simrun.Tier(resp.Header.Get(HeaderTier)), nil
}

// watchLease cancels the dispatch context when the worker's lease clock
// lapses; the returned flag distinguishes lease expiry from an ordinary
// cancellation. The watcher polls at a quarter of the TTL — cheap, and
// an expiry is detected within 1.25 lease lifetimes of the last beat.
func (c *Coordinator) watchLease(ctx context.Context, cancel context.CancelFunc, workerID string) *atomic.Bool {
	expired := &atomic.Bool{}
	interval := c.leaseTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.mu.Lock()
				ws, ok := c.workers[workerID]
				live := ok && time.Since(ws.lastBeat) <= c.leaseTTL
				c.mu.Unlock()
				if !live {
					expired.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return expired
}
