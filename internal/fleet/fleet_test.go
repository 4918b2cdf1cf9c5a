package fleet_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simrun"
)

// encode is the canonical payload encoding used throughout these tests:
// identical scenarios produce byte-identical payloads, the property that
// makes at-least-once dispatch safe.
func encode(res simrun.Result) ([]byte, error) { return report.JSON(res.Result) }

func newCache(t *testing.T) *simrun.Cache {
	t.Helper()
	c, err := simrun.NewCache(simrun.CacheOpts{Encode: encode})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testSpec is the job every test dispatches: small enough to simulate in
// milliseconds, real enough to exercise the full engine path.
var testSpec = simrun.Spec{Bench: "gcc", Insts: 2000}

// refPayload runs the test spec locally on a fresh cache — the
// byte-identity reference every delivered payload must match.
func refPayload(t *testing.T) []byte {
	t.Helper()
	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := newCache(t).GetOrRun(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return entry.Payload
}

// cluster is a coordinator plus its control-plane server.
type cluster struct {
	coord *fleet.Coordinator
	reg   *obs.Registry
	srv   *httptest.Server
}

func newCluster(t *testing.T, cfg fleet.Config) *cluster {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = newCache(t)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Registry = reg
	}
	if cfg.Retry.Base == 0 {
		// Fast, bounded backoff so failure-path tests stay quick.
		cfg.Retry = fleet.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond}
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &cluster{coord: coord, reg: reg, srv: srv}
}

// metrics renders the cluster's registry; tests grep it for counters.
func (c *cluster) metrics(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	obs.WriteAll(&buf, c.reg)
	return buf.String()
}

// metricValue extracts one un-labeled counter/gauge value from the text
// exposition ("" when absent).
func metricValue(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	return ""
}

func wantMetric(t *testing.T, c *cluster, name, want string) {
	t.Helper()
	if got := metricValue(c.metrics(t), name); got != want {
		t.Errorf("%s = %q, want %q", name, got, want)
	}
}

// node is one fleet worker: its handler server and control loop.
type node struct {
	w      *fleet.Worker
	faults *fleet.FaultInjector
	srv    *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker boots a worker against the cluster and waits until its
// registration landed.
func startWorker(t *testing.T, c *cluster, id string, faults *fleet.FaultInjector) *node {
	t.Helper()
	var w *fleet.Worker
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:          id,
		SelfURL:     srv.URL,
		Coordinator: c.srv.URL,
		Cache:       newCache(t),
		Faults:      faults,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{w: w, faults: faults, srv: srv, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := w.Start(ctx); err != nil {
			t.Errorf("worker %s: %v", id, err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-n.done
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, got := range c.coord.WorkerIDs() {
			if got == id {
				return n
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never registered", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// collect returns a dispatch-event recorder and its snapshot accessor.
func collect() (func(fleet.Dispatch), func() []fleet.Dispatch) {
	var mu sync.Mutex
	var events []fleet.Dispatch
	record := func(d fleet.Dispatch) {
		mu.Lock()
		events = append(events, d)
		mu.Unlock()
	}
	snapshot := func() []fleet.Dispatch {
		mu.Lock()
		defer mu.Unlock()
		return append([]fleet.Dispatch(nil), events...)
	}
	return record, snapshot
}

// TestChaosKillMidJob is the headline chaos drill: a three-worker fleet,
// the worker the job shards onto dies mid-run (connection severed, no
// further heartbeats), and the job must complete on another worker with
// a payload byte-identical to a local run. FLEET_CHAOS=N repeats the
// drill N times (fresh fleet each round) for soak runs.
func TestChaosKillMidJob(t *testing.T) {
	rounds := 1
	if v := os.Getenv("FLEET_CHAOS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FLEET_CHAOS wants a round count >= 1, got %q", v)
		}
		rounds = n
	}
	ref := refPayload(t)
	for round := 0; round < rounds; round++ {
		c := newCluster(t, fleet.Config{LeaseTTL: 500 * time.Millisecond})
		nodes := map[string]*node{}
		for _, id := range []string{"w1", "w2", "w3"} {
			nodes[id] = startWorker(t, c, id, &fleet.FaultInjector{})
		}

		sc, err := testSpec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		key, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		target := c.coord.AssignedWorker(key)
		if target == "" {
			t.Fatal("no worker assigned with three registered")
		}
		nodes[target].faults.KillAtRun(1)

		record, snapshot := collect()
		entry, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, OnDispatch: record})
		if err != nil {
			t.Fatalf("round %d: run: %v", round, err)
		}
		if !bytes.Equal(entry.Payload, ref) {
			t.Fatalf("round %d: payload after worker kill differs from local reference", round)
		}
		if entry.Source == simrun.CacheSource("worker:"+target) {
			t.Fatalf("round %d: job completed on the killed worker %s", round, target)
		}
		if !strings.HasPrefix(string(entry.Source), "worker:") {
			t.Fatalf("round %d: entry source %q, want a worker completion", round, entry.Source)
		}
		if !nodes[target].w.Dead() {
			t.Fatalf("round %d: injector did not kill %s", round, target)
		}

		events := snapshot()
		if len(events) < 2 {
			t.Fatalf("round %d: want at least dispatch+reassign events, got %v", round, events)
		}
		if events[0].Worker != target || events[0].Event != "dispatch" || events[0].Attempt != 1 {
			t.Errorf("round %d: first event = %+v, want dispatch attempt 1 on %s", round, events[0], target)
		}
		last := events[len(events)-1]
		if last.Event != "reassign" || last.Worker == target || last.Worker == "local" {
			t.Errorf("round %d: final event = %+v, want a reassign onto a surviving worker", round, last)
		}
		wantMetric(t, c, "fleet_reassignments_total", "1")
		wantMetric(t, c, "fleet_completions_total", "1")
		wantMetric(t, c, "fleet_local_runs_total", "0")
	}
}

// TestLeaseExpiryAbandonsSilentWorker: the only worker stops
// heartbeating and sits on the result far longer than the lease TTL. The
// coordinator must abandon the dispatch when the lease lapses — well
// before the worker's delay — and degrade to a local run.
func TestLeaseExpiryAbandonsSilentWorker(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: 300 * time.Millisecond})
	faults := &fleet.FaultInjector{}
	faults.DropHeartbeats(-1)
	faults.DelayResults(10 * time.Second)
	startWorker(t, c, "silent", faults)

	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	record, snapshot := collect()
	start := time.Now()
	entry, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, OnDispatch: record})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v: the lease did not cut the delayed dispatch short", elapsed)
	}
	if entry.Source != simrun.SourceRun {
		t.Fatalf("entry source = %q, want local %q after the only worker lapsed", entry.Source, simrun.SourceRun)
	}
	if !bytes.Equal(entry.Payload, refPayload(t)) {
		t.Fatal("degraded local payload differs from reference")
	}
	events := snapshot()
	if len(events) != 2 || events[0].Event != "dispatch" || events[1].Event != "local" {
		t.Fatalf("events = %+v, want [dispatch local]", events)
	}
	wantMetric(t, c, "fleet_lease_expiries_total", "1")
	wantMetric(t, c, "fleet_local_runs_total", "1")
	if got := c.coord.Workers(); got != 0 {
		t.Errorf("workers after lease expiry = %d, want 0 (forgotten)", got)
	}
}

// TestZeroWorkersDegradesToLocal: an empty fleet serves jobs through the
// coordinator's own engine registry, and the answer is byte-identical to
// a plain local run.
func TestZeroWorkersDegradesToLocal(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: 200 * time.Millisecond})
	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	record, snapshot := collect()
	entry, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, OnDispatch: record})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if entry.Source != simrun.SourceRun {
		t.Fatalf("entry source = %q, want %q", entry.Source, simrun.SourceRun)
	}
	if !bytes.Equal(entry.Payload, refPayload(t)) {
		t.Fatal("zero-worker payload differs from local reference")
	}
	events := snapshot()
	if len(events) != 1 || events[0].Worker != "local" || events[0].Event != "local" {
		t.Fatalf("events = %+v, want one local dispatch", events)
	}
	wantMetric(t, c, "fleet_local_runs_total", "1")
	wantMetric(t, c, "fleet_dispatches_total", "0")
}

// TestCorruptDeliveryRetries: the worker's first delivery is corrupted
// in flight (checksum header describes the true payload). The
// coordinator must detect the damage, refuse the payload, and retry to a
// clean completion.
func TestCorruptDeliveryRetries(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: 500 * time.Millisecond})
	faults := &fleet.FaultInjector{}
	faults.CorruptAtRun(1)
	startWorker(t, c, "flipper", faults)

	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	record, snapshot := collect()
	entry, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, OnDispatch: record})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if entry.Source != simrun.CacheSource("worker:flipper") {
		t.Fatalf("entry source = %q, want the retried worker completion", entry.Source)
	}
	if !bytes.Equal(entry.Payload, refPayload(t)) {
		t.Fatal("payload after corrupt-delivery retry differs from reference")
	}
	events := snapshot()
	if len(events) != 2 || events[0].Event != "dispatch" || events[1].Event != "retry" {
		t.Fatalf("events = %+v, want [dispatch retry]", events)
	}
	wantMetric(t, c, "fleet_corrupt_results_total", "1")
	wantMetric(t, c, "fleet_retries_total", "1")
	wantMetric(t, c, "fleet_completions_total", "1")
}

// TestDuplicateCompletionDedupes: a re-run of an already-completed job
// is served from the coordinator's cache — no second dispatch — and the
// bytes are identical: at-least-once dispatch can land the same result
// any number of times without conflict.
func TestDuplicateCompletionDedupes(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: 500 * time.Millisecond})
	startWorker(t, c, "only", &fleet.FaultInjector{})

	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	record, snapshot := collect()
	second, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, OnDispatch: record})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.Source != simrun.SourceMemory {
		t.Fatalf("second source = %q, want cache hit", second.Source)
	}
	if !bytes.Equal(first.Payload, second.Payload) {
		t.Fatal("duplicate completion returned different bytes")
	}
	if events := snapshot(); len(events) != 0 {
		t.Fatalf("second run dispatched: %+v", events)
	}
	wantMetric(t, c, "fleet_dispatches_total", "1")
}

// TestWorkerLifecycle walks the control plane: register, heartbeat,
// survive a coordinator that forgot the worker (heartbeat 404 →
// re-register), and deregister on clean shutdown.
func TestWorkerLifecycle(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: 300 * time.Millisecond})
	n := startWorker(t, c, "w", &fleet.FaultInjector{})
	if got := c.coord.Workers(); got != 1 {
		t.Fatalf("workers = %d, want 1", got)
	}

	// Simulate a coordinator restart: the worker vanishes from the pool,
	// its next heartbeat 404s, and it must re-register on its own.
	resp, err := http.Post(c.srv.URL+fleet.PathDeregister, "application/json", strings.NewReader(`{"id":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.coord.Workers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never re-registered after the coordinator forgot it")
		}
		time.Sleep(10 * time.Millisecond)
	}

	n.cancel()
	<-n.done
	if got := c.coord.Workers(); got != 0 {
		t.Fatalf("workers after clean shutdown = %d, want 0 (deregistered)", got)
	}
}

// TestRendezvousSharding: assignment is deterministic per key and
// spreads distinct keys across the fleet.
func TestRendezvousSharding(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: time.Hour})
	for _, id := range []string{"a", "b", "c"} {
		resp, err := http.Post(c.srv.URL+fleet.PathRegister, "application/json",
			strings.NewReader(`{"id":"`+id+`","url":"http://unused"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		key := "key-" + strconv.Itoa(i)
		first := c.coord.AssignedWorker(key)
		if first == "" {
			t.Fatalf("key %s unassigned", key)
		}
		if again := c.coord.AssignedWorker(key); again != first {
			t.Fatalf("key %s: assignment flapped %s -> %s", key, first, again)
		}
		seen[first] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 keys all sharded onto one worker: %v", seen)
	}
}

// oversized is a request body one byte past the handlers' 1 MiB bound: the
// start of a JSON object whose first string never ends.
func oversized() *strings.Reader {
	const limit = 1 << 20
	head := `{"id":"`
	return strings.NewReader(head + strings.Repeat("a", limit+1-len(head)))
}

// wantTooLarge posts an oversized body and requires a 413 naming the limit.
func wantTooLarge(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", oversized())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "1048576-byte limit") {
		t.Errorf("POST %s with 1 MiB + 1 byte: status %d, body %q; want 413 naming the limit", url, resp.StatusCode, body)
	}
}

// TestCoordinatorBoundsRequestBodies: register, heartbeat and deregister
// stop reading at 1 MiB and say so, and the pool is left as it was.
func TestCoordinatorBoundsRequestBodies(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: time.Minute})
	startWorker(t, c, "w", &fleet.FaultInjector{})
	for _, path := range []string{fleet.PathRegister, fleet.PathHeartbeat, fleet.PathDeregister} {
		t.Run(path, func(t *testing.T) { wantTooLarge(t, c.srv.URL+path) })
	}
	if got := c.coord.WorkerIDs(); len(got) != 1 || got[0] != "w" {
		t.Errorf("workers after the oversized requests = %v, want [w]", got)
	}
}

// TestWorkerBoundsRunBody: a dispatched spec past 1 MiB is refused as too
// large, counted as a run error, and nothing is simulated.
func TestWorkerBoundsRunBody(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: time.Minute})
	n := startWorker(t, c, "w", &fleet.FaultInjector{})
	wantTooLarge(t, n.srv.URL+fleet.PathRun)
}
