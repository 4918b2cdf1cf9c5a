package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simrun"
)

// newFleetServer builds a coordinator-mode simd server with the fleet
// control plane mounted on the same listener, exactly as cmd/simd wires
// it.
func newFleetServer(t *testing.T) (*Server, *fleet.Coordinator, *httptest.Server) {
	t.Helper()
	cache, err := simrun.NewCache(simrun.CacheOpts{Encode: Encode, DecodeTier: DecodeTier})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Cache:    cache,
		LeaseTTL: time.Second,
		Retry:    fleet.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 2, Cache: cache, Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, coord, ts
}

// startFleetWorker boots one fleet worker against the coordinator and
// waits for its registration.
func startFleetWorker(t *testing.T, coord *fleet.Coordinator, coordURL, id string, faults *fleet.FaultInjector) *fleet.Worker {
	t.Helper()
	cache, err := simrun.NewCache(simrun.CacheOpts{Encode: Encode, DecodeTier: DecodeTier})
	if err != nil {
		t.Fatal(err)
	}
	var w *fleet.Worker
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	w, err = fleet.NewWorker(fleet.WorkerConfig{
		ID:          id,
		SelfURL:     srv.URL,
		Coordinator: coordURL,
		Cache:       cache,
		Faults:      faults,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Start(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, got := range coord.WorkerIDs() {
			if got == id {
				return w
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never registered", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// traceDoc is the GET /v1/jobs/{id}/trace payload.
type traceDoc struct {
	Job     string         `json:"job"`
	Spans   []obs.SpanRec  `json:"spans"`
	Dropped uint64         `json:"dropped"`
	Rows    map[int]string `json:"rows"`
}

func getTrace(t *testing.T, ts *httptest.Server, id string) traceDoc {
	t.Helper()
	body, status := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace status = %d: %s", status, body)
	}
	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// specFingerprint computes the content address the server will shard
// the test spec by.
func specFingerprint(t *testing.T) string {
	t.Helper()
	spec, err := simrun.ParseSpec(strings.NewReader(specGCC))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestFleetTraceStitching is the acceptance run: a coordinator with
// two live workers serves a job whose trace stitches both sides of the
// dispatch — coordinator queue/dispatch spans on row 0, the worker's
// engine spans on its own named row, all on one monotonically
// consistent timebase. Each node keeps its own /metrics: the worker
// that ran the job counts it there, and the coordinator serves no
// merged view. The result bytes stay identical to a single-node run
// with every bit of fleet observability on.
func TestFleetTraceStitching(t *testing.T) {
	s, coord, ts := newFleetServer(t)
	workers := map[string]*fleet.Worker{
		"w1": startFleetWorker(t, coord, ts.URL, "w1", &fleet.FaultInjector{}),
		"w2": startFleetWorker(t, coord, ts.URL, "w2", &fleet.FaultInjector{}),
	}
	target := coord.AssignedWorker(specFingerprint(t))
	if target == "" {
		t.Fatal("no worker assigned")
	}

	doc, status := postJob(t, ts, specGCC)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	doc = waitDone(t, s, doc.ID)
	if doc.Status != StatusDone || doc.Worker != target {
		t.Fatalf("job = %+v, want done on %s", doc, target)
	}

	tr := getTrace(t, ts, doc.ID)
	byName := map[string]obs.SpanRec{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	if _, ok := byName["queue"]; !ok {
		t.Errorf("trace lacks the coordinator queue span: %v", tr.Spans)
	}
	disp, ok := byName["dispatch:"+target]
	if !ok {
		t.Fatalf("trace lacks dispatch:%s: %v", target, tr.Spans)
	}
	if disp.TID != 0 {
		t.Errorf("dispatch span on row %d, want 0", disp.TID)
	}

	workerRow := 0
	for tid, name := range tr.Rows {
		if name == "worker:"+target {
			workerRow = tid
		}
	}
	if workerRow == 0 || tr.Rows[0] != "coordinator" {
		t.Fatalf("rows = %v, want coordinator on 0 and a row for worker:%s", tr.Rows, target)
	}
	sawEngine := false
	for _, sp := range tr.Spans {
		if sp.TID != workerRow {
			continue
		}
		if strings.HasPrefix(sp.Name, "engine:") {
			sawEngine = true
		}
		if sp.StartUS < disp.StartUS || sp.StartUS+sp.DurUS > disp.StartUS+disp.DurUS {
			t.Errorf("remote span %s [%d,%d] outside dispatch window [%d,%d]",
				sp.Name, sp.StartUS, sp.StartUS+sp.DurUS, disp.StartUS, disp.StartUS+disp.DurUS)
		}
	}
	if !sawEngine {
		t.Errorf("no remote engine span on worker row %d: %v", workerRow, tr.Spans)
	}

	// Metrics: the worker that ran the job counts it on its own
	// /metrics; the coordinator has no federation endpoint.
	rec := httptest.NewRecorder()
	workers[target].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `fleet_worker_runs_total{worker="` + target + `"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("worker /metrics lacks %s:\n%s", want, rec.Body.String())
	}
	if _, status := getBody(t, ts.URL+"/fleet/v1/metrics"); status != http.StatusNotFound {
		t.Errorf("GET /fleet/v1/metrics = %d, want 404", status)
	}

	// Byte identity with all fleet observability on: the routed result
	// equals a plain single-node server's for the same spec.
	plain, pts := newTestServer(t, Config{Workers: 1})
	ref, _ := postJob(t, pts, specGCC)
	ref = waitDone(t, plain, ref.ID)
	if !bytes.Equal(doc.Result, ref.Result) {
		t.Error("fleet-traced result differs from single-node result bytes")
	}
}

// TestFleetChaosTraceStitch: the worker holding the job dies mid-run;
// the finished trace must still tell the whole story — the failed
// attempt's dispatch span on the killed worker plus the survivor's
// remote spans — and the payload must stay byte-identical to a local
// run. Exercised by the fleet-chaos CI job under FLEET_CHAOS soak.
func TestFleetChaosTraceStitch(t *testing.T) {
	s, coord, ts := newFleetServer(t)
	faults := map[string]*fleet.FaultInjector{
		"w1": {},
		"w2": {},
	}
	startFleetWorker(t, coord, ts.URL, "w1", faults["w1"])
	startFleetWorker(t, coord, ts.URL, "w2", faults["w2"])
	target := coord.AssignedWorker(specFingerprint(t))
	if target == "" {
		t.Fatal("no worker assigned")
	}
	faults[target].KillAtRun(1)

	doc, status := postJob(t, ts, specGCC)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	doc = waitDone(t, s, doc.ID)
	if doc.Status != StatusDone {
		t.Fatalf("job after worker kill = %+v", doc)
	}
	survivor := doc.Worker
	if survivor == target || survivor == "local" || survivor == "" {
		t.Fatalf("job finished on %q, want the surviving worker", survivor)
	}

	tr := getTrace(t, ts, doc.ID)
	var sawKilled, sawSurvivor bool
	survivorRow := 0
	for tid, name := range tr.Rows {
		if name == "worker:"+survivor {
			survivorRow = tid
		}
	}
	if survivorRow == 0 {
		t.Fatalf("rows = %v, want a row for the survivor %s", tr.Rows, survivor)
	}
	for _, sp := range tr.Spans {
		switch {
		case sp.Name == "dispatch:"+target:
			sawKilled = true
		case sp.TID == survivorRow && strings.HasPrefix(sp.Name, "engine:"):
			sawSurvivor = true
		}
	}
	if !sawKilled {
		t.Errorf("trace lost the killed attempt's dispatch span: %v", tr.Spans)
	}
	if !sawSurvivor {
		t.Errorf("trace lacks the survivor's remote engine span: %v", tr.Spans)
	}

	plain, pts := newTestServer(t, Config{Workers: 1})
	ref, _ := postJob(t, pts, specGCC)
	ref = waitDone(t, plain, ref.ID)
	if !bytes.Equal(doc.Result, ref.Result) {
		t.Error("post-chaos result differs from single-node result bytes")
	}
}
