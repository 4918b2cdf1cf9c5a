package simrun

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Observability is presentation, not simulated content: attaching an
// observer must not move the fingerprint, or tracing a run would
// bypass its cached result.
func TestObserveFingerprintInvariance(t *testing.T) {
	obsv := &obs.Observer{
		Tracer:   obs.NewTracer(0),
		Progress: func(obs.Progress) {},
	}
	sp := Spec{Bench: "gcc", Cores: 2, Insts: 5000}
	a := fp(t, sp)
	b := fp(t, sp, Observe(obsv))
	if a != b {
		t.Fatalf("Observe changed the fingerprint: %s vs %s", a, b)
	}
}

// Every dispatch lands in the per-engine run counter and wall-clock
// histogram, observer or not.
func TestRunRecordsEngineMetrics(t *testing.T) {
	runs, wall := engineMetrics(DefaultEngine)
	r0, w0 := runs.Value(), wall.Count()

	s := build(t, Spec{Bench: "gcc", Insts: 2000, Warmup: 1000})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got := runs.Value(); got != r0+1 {
		t.Fatalf("engine run counter: got %d, want %d", got, r0+1)
	}
	if got := wall.Count(); got != w0+1 {
		t.Fatalf("engine wall histogram count: got %d, want %d", got, w0+1)
	}
}

// An attached tracer sees the run bracketed in an engine span plus the
// driver's warmup/measure sub-spans, and the progress callback fires at
// least the final heartbeat with the retired total.
func TestObserverSpansAndProgress(t *testing.T) {
	tr := obs.NewTracer(0)
	var last obs.Progress
	obsv := &obs.Observer{
		Tracer:        tr,
		Progress:      func(p obs.Progress) { last = p },
		ProgressEvery: time.Nanosecond,
	}
	s := build(t, Spec{Bench: "gcc", Insts: 2000, Warmup: 1000}, Observe(obsv))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var haveEngine, haveWarmup, haveMeasure bool
	for _, sp := range tr.Spans() {
		switch {
		case strings.HasPrefix(sp.Name, "engine:"):
			haveEngine = true
		case sp.Name == "warmup":
			haveWarmup = true
		case sp.Name == "measure":
			haveMeasure = true
		}
	}
	if !haveEngine || !haveWarmup || !haveMeasure {
		t.Fatalf("missing spans: engine=%v warmup=%v measure=%v in %v",
			haveEngine, haveWarmup, haveMeasure, tr.Spans())
	}

	if last.Retired != res.TotalRetired {
		t.Fatalf("final heartbeat retired=%d, want %d", last.Retired, res.TotalRetired)
	}
	if last.Tier != string(fullTier(s)) || last.Label != s.Name() {
		t.Fatalf("heartbeat identity: tier=%q label=%q", last.Tier, last.Label)
	}
	if last.Budget != s.TotalInstBudget() {
		t.Fatalf("heartbeat budget=%d, want %d", last.Budget, s.TotalInstBudget())
	}
}

// Batch occupancy gauges drain back to zero once the pool finishes.
func TestBatchGaugesDrain(t *testing.T) {
	scs := []*Scenario{
		build(t, Spec{Bench: "gcc", Insts: 1000}),
		build(t, Spec{Bench: "mcf", Insts: 1000}),
		build(t, Spec{Bench: "gzip", Insts: 1000}),
	}
	Batch(context.Background(), scs, BatchOpts{Workers: 2})
	if v := mBatchPending.Value(); v != 0 {
		t.Fatalf("batch pending gauge did not drain: %d", v)
	}
	if v := mBatchRunning.Value(); v != 0 {
		t.Fatalf("batch running gauge did not drain: %d", v)
	}
}
