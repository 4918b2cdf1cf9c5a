package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simrun"
)

// WorkerConfig sizes a Worker.
type WorkerConfig struct {
	// ID names the worker in the coordinator's pool — required, unique
	// per fleet (cmd/simd defaults it to host+pid).
	ID string
	// SelfURL is the base URL the coordinator dials this worker at —
	// required before Start.
	SelfURL string
	// Coordinator is the coordinator's base URL — required before
	// Start.
	Coordinator string
	// Cache runs and stores this worker's simulations — required. A
	// worker's cache makes re-dispatched jobs it already ran free.
	Cache *simrun.Cache
	// Faults, when non-nil, is the chaos seam (see FaultInjector).
	Faults *FaultInjector
	// HeartbeatEvery overrides the coordinator's advertised heartbeat
	// interval (0 = accept the advertisement).
	HeartbeatEvery time.Duration
	// Registry receives the worker metrics (nil selects obs.Default()).
	Registry *obs.Registry
	// Client performs control-plane requests (nil builds a default).
	Client *http.Client
}

// Worker executes dispatched simulations and keeps its lease alive by
// heartbeating the coordinator. Serve Handler on SelfURL's port and run
// Start for the control loop.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	// reg is the registry Handler serves at GET /metrics — the surface
	// the coordinator's federation scraper reads.
	reg *obs.Registry

	// beatEvery is the active heartbeat interval in nanoseconds,
	// adopted from the coordinator's registration advertisement unless
	// the config pinned one.
	beatEvery atomic.Int64
	// dead flips when the fault injector kills the worker: heartbeats
	// stop and further run requests die on the wire, exactly like a
	// crashed process.
	dead atomic.Bool

	mRuns      *obs.Counter
	mRunErrors *obs.Counter
	mBeats     *obs.Counter
	mDropped   *obs.Counter
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: worker needs an ID")
	}
	if cfg.Cache == nil {
		return nil, fmt.Errorf("fleet: worker needs a result cache")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	w := &Worker{cfg: cfg, client: client}
	w.beatEvery.Store(int64(cfg.HeartbeatEvery))
	r := cfg.Registry
	if r == nil {
		r = obs.Default()
	}
	w.reg = r
	lbl := obs.Label{Key: "worker", Value: cfg.ID}
	w.mRuns = r.Counter("fleet_worker_runs_total",
		"Run requests this worker served.", lbl)
	w.mRunErrors = r.Counter("fleet_worker_run_errors_total",
		"Run requests that failed (bad spec or simulation error).", lbl)
	w.mBeats = r.Counter("fleet_worker_heartbeats_total",
		"Heartbeats sent to the coordinator.", lbl)
	w.mDropped = r.Counter("fleet_worker_heartbeats_dropped_total",
		"Heartbeats swallowed by the fault injector.", lbl)
	return w, nil
}

// Handler is the worker's data plane: the run endpoint, liveness, and
// the /metrics exposition the coordinator's federation scraper reads.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRun, w.handleRun)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			// A crashed worker cannot answer scrapes either; the
			// coordinator marks it stale and keeps the last good payload.
			panic(http.ErrAbortHandler)
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteAll(rw, w.reg, obs.Default())
	})
	return mux
}

// Dead reports whether the fault injector has killed the worker.
func (w *Worker) Dead() bool { return w.dead.Load() }

// handleRun simulates one dispatched spec and delivers the payload with
// its fidelity tier and integrity checksum. When the request carries an
// X-Fleet-Trace header, the job runs under a per-request tracer and the
// recorded spans (engine, warmup, measure, cache store — the worker's
// half of the job's life) ride back in the X-Fleet-Spans header for the
// coordinator to splice into its own trace; the spans never touch the
// payload bytes, so checksums and byte-identity are unaffected. The
// fault injector hooks in here: a kill severs the connection mid-job
// and silences the worker for good; a corruption flips a payload byte
// after the checksum is taken; a delay holds the finished result on the
// wire.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if w.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	kill, corrupt, delay := w.cfg.Faults.onRun()
	if kill {
		// Die exactly as a crashed worker does: the in-flight request's
		// connection is severed with no response, heartbeats stop, and
		// the coordinator's lease/transport machinery must recover.
		w.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	w.mRuns.Inc()
	spec, err := simrun.ParseSpec(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	if err != nil {
		w.mRunErrors.Inc()
		if !rejectOversized(rw, err) {
			http.Error(rw, err.Error(), http.StatusBadRequest)
		}
		return
	}
	sc, err := spec.Scenario()
	if err != nil {
		w.mRunErrors.Inc()
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var tracer *obs.Tracer
	if r.Header.Get(HeaderTrace) != "" {
		// The per-request tracer's epoch is request arrival, so every
		// span start is an offset into this dispatch — exactly what the
		// coordinator adds to its own send timestamp when splicing. The
		// observer never enters the fingerprint or the payload.
		tracer = obs.NewTracer(0)
		sc.SetObserver(&obs.Observer{Tracer: tracer})
	}
	entry, err := w.cfg.Cache.GetOrRun(r.Context(), sc)
	if err != nil {
		w.mRunErrors.Inc()
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	payload := entry.Payload
	sum := sha256.Sum256(payload)
	if corrupt {
		// Model corruption in delivery, not at rest: the checksum
		// header still describes the true payload, so the coordinator
		// detects the damage and re-dispatches.
		payload = bytes.Clone(payload)
		payload[len(payload)/2] ^= 0x40
	}
	if delay > 0 && !sleep(r.Context(), delay) {
		return
	}
	if tracer != nil {
		spans := tracer.Spans()
		if len(spans) == 0 {
			// A cache hit runs no engine; report the answer's provenance
			// as one zero-effort span so the stitched trace still shows
			// where the job went.
			tracer.Start("cache:" + string(entry.Source)).End()
			spans = tracer.Spans()
		}
		if enc := obs.EncodeSpans(spans, 0); enc != "" {
			rw.Header().Set(HeaderSpans, enc)
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(HeaderTier, string(entry.Tier))
	rw.Header().Set(HeaderSum, hex.EncodeToString(sum[:]))
	rw.Write(payload)
}

// Start registers with the coordinator and heartbeats until ctx is
// cancelled (then deregisters, best-effort) or the fault injector kills
// the worker. Registration failures retry under backoff — a worker that
// boots before its coordinator just keeps knocking.
func (w *Worker) Start(ctx context.Context) error {
	if w.cfg.SelfURL == "" || w.cfg.Coordinator == "" {
		return fmt.Errorf("fleet: worker Start needs SelfURL and Coordinator")
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		every := time.Duration(w.beatEvery.Load())
		if every <= 0 {
			every = time.Second
		}
		select {
		case <-ctx.Done():
			w.deregister()
			return nil
		case <-time.After(every):
		}
		if w.dead.Load() {
			// Killed: go silent. The coordinator's leases do the rest.
			return nil
		}
		if w.cfg.Faults.dropBeat() {
			w.mDropped.Inc()
			continue
		}
		if err := w.beat(ctx); err != nil {
			// A 404 means the coordinator forgot us (restart, lease
			// lapse): re-register. Transport errors just try again next
			// tick — the lease TTL is the real deadline.
			if isStatus(err, http.StatusNotFound) {
				w.register(ctx)
			}
		}
	}
}

// register announces the worker and adopts the coordinator's advertised
// heartbeat interval (unless the config pinned one), retrying under
// backoff until ctx dies.
func (w *Worker) register(ctx context.Context) error {
	body, _ := json.Marshal(registration{ID: w.cfg.ID, URL: w.cfg.SelfURL})
	return Backoff{}.Retry(ctx, "register:"+w.cfg.ID, func() (bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+PathRegister, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client.Do(req)
		if err != nil {
			return TransientErr(err), err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return TransientStatus(resp.StatusCode), &statusErr{status: resp.StatusCode}
		}
		var terms leaseTerms
		if err := json.NewDecoder(resp.Body).Decode(&terms); err != nil {
			return false, err
		}
		if w.cfg.HeartbeatEvery <= 0 && terms.HeartbeatMillis > 0 {
			w.beatEvery.Store(int64(time.Duration(terms.HeartbeatMillis) * time.Millisecond))
		}
		return false, nil
	})
}

func (w *Worker) beat(ctx context.Context) error {
	w.mBeats.Inc()
	body, _ := json.Marshal(heartbeat{ID: w.cfg.ID})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+PathHeartbeat, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return &statusErr{status: resp.StatusCode}
	}
	return nil
}

// deregister is a courtesy on clean shutdown; the lease TTL covers the
// unclean case.
func (w *Worker) deregister() {
	body, _ := json.Marshal(heartbeat{ID: w.cfg.ID})
	req, err := http.NewRequest(http.MethodPost, w.cfg.Coordinator+PathDeregister, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if resp, err := w.client.Do(req.WithContext(ctx)); err == nil {
		resp.Body.Close()
	}
}

func isStatus(err error, status int) bool {
	var se *statusErr
	return errors.As(err, &se) && se.status == status
}
