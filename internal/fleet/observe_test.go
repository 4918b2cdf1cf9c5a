package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// findSpan returns the first span whose name matches, and whether any did.
func findSpan(spans []obs.SpanRec, name string) (obs.SpanRec, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return obs.SpanRec{}, false
}

// TestTraceStitching: a traced fleet run produces one trace holding both
// sides of the job — the coordinator's dispatch span on row 0 and the
// worker's remote spans (engine, cache store) spliced onto the worker's
// own named row, time-shifted into the coordinator's timebase so the
// remote work nests inside the dispatch window.
func TestTraceStitching(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: time.Second})
	startWorker(t, c, "w1", &fleet.FaultInjector{})
	startWorker(t, c, "w2", &fleet.FaultInjector{})

	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	target := c.coord.AssignedWorker(key)

	tracer := obs.NewTracer(0)
	if _, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec, Tracer: tracer}); err != nil {
		t.Fatalf("run: %v", err)
	}

	spans := tracer.Spans()
	disp, ok := findSpan(spans, "dispatch:"+target)
	if !ok {
		t.Fatalf("no dispatch span for %s in %v", target, spans)
	}
	if disp.TID != 0 {
		t.Errorf("dispatch span on row %d, want coordinator row 0", disp.TID)
	}

	rows := tracer.TIDNames()
	if rows[0] != "coordinator" {
		t.Errorf("row 0 = %q, want coordinator", rows[0])
	}
	workerRow := -1
	for tid, name := range rows {
		if name == "worker:"+target {
			workerRow = tid
		}
	}
	if workerRow < 1 {
		t.Fatalf("no named row for worker:%s in %v", target, rows)
	}

	// The worker's half must be present, on the worker's row, and
	// monotonically consistent: its processing window is strictly inside
	// the dispatch request's RTT window.
	var remote []obs.SpanRec
	for _, s := range spans {
		if s.TID == workerRow {
			remote = append(remote, s)
		}
	}
	if len(remote) == 0 {
		t.Fatalf("no remote spans spliced onto row %d: %v", workerRow, spans)
	}
	sawEngine := false
	for _, s := range remote {
		if strings.HasPrefix(s.Name, "engine:") {
			sawEngine = true
		}
		if s.StartUS < disp.StartUS || s.StartUS+s.DurUS > disp.StartUS+disp.DurUS {
			t.Errorf("remote span %s [%d, %d] escapes dispatch window [%d, %d]",
				s.Name, s.StartUS, s.StartUS+s.DurUS, disp.StartUS, disp.StartUS+disp.DurUS)
		}
	}
	if !sawEngine {
		t.Errorf("no remote engine span on the worker row: %v", remote)
	}
}

// TestFleetStatus: after a dispatched job, /fleet/v1/status reports
// per-worker liveness and dispatch accounting, and the coordinator
// serves no merged metrics view — each node's /metrics is its own.
func TestFleetStatus(t *testing.T) {
	c := newCluster(t, fleet.Config{LeaseTTL: time.Second})
	startWorker(t, c, "w1", &fleet.FaultInjector{})
	startWorker(t, c, "w2", &fleet.FaultInjector{})

	sc, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	target := c.coord.AssignedWorker(key)
	if _, err := c.coord.Run(context.Background(), sc, fleet.RunOpts{Spec: testSpec}); err != nil {
		t.Fatalf("run: %v", err)
	}

	resp, err := http.Get(c.srv.URL + "/fleet/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /fleet/v1/metrics = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(c.srv.URL + fleet.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleet.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	if st.LiveWorkers != 2 || len(st.Workers) != 2 {
		t.Fatalf("status workers = %d live of %d, want 2 of 2", st.LiveWorkers, len(st.Workers))
	}
	if st.Dispatches != 1 || st.Completions != 1 {
		t.Errorf("status dispatches=%d completions=%d, want 1 and 1", st.Dispatches, st.Completions)
	}
	if got := metricValue(c.metrics(t), "fleet_dispatch_seconds_count"); got != strconv.FormatUint(st.Dispatches, 10) {
		t.Errorf("fleet_dispatch_seconds_count = %q, want status dispatches %d", got, st.Dispatches)
	}
	if st.DispatchP95Millis <= 0 {
		t.Errorf("dispatch p95 = %v, want > 0 after a dispatch", st.DispatchP95Millis)
	}
	for _, w := range st.Workers {
		if !w.Live || w.LeaseAgeMillis < 0 {
			t.Errorf("worker %s: live=%v lease_age=%d, want live with a lease clock", w.ID, w.Live, w.LeaseAgeMillis)
		}
		if w.ID == target {
			if w.OK != 1 || w.Attempts[1] != 1 || w.TraceRow < 1 {
				t.Errorf("target %s: ok=%d attempts=%v row=%d, want one first-attempt success on a named row",
					w.ID, w.OK, w.Attempts, w.TraceRow)
			}
		} else if w.OK != 0 {
			t.Errorf("idle worker %s: ok=%d, want 0", w.ID, w.OK)
		}
	}
}
