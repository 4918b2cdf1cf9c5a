package simd

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// goldenMetrics pins the service's exposition contract: every metric
// name, help string and type the /metrics endpoint has always served.
// Renaming any of these breaks dashboards — the test makes that a
// deliberate act.
var goldenMetrics = []struct {
	name string
	help string
	typ  string
}{
	{"simd_jobs_submitted_total", "Jobs accepted (new scenarios).", "counter"},
	{"simd_jobs_deduplicated_total", "Submissions joined onto an existing job.", "counter"},
	{"simd_jobs_rejected_total", "Submissions rejected because the queue was full.", "counter"},
	{"simd_jobs_completed_total", "Jobs finished successfully.", "counter"},
	{"simd_jobs_failed_total", "Jobs that errored.", "counter"},
	{"simd_queue_depth", "Jobs waiting for a worker.", "gauge"},
	{"simd_cache_runs_total", "Simulator executions (cache misses).", "counter"},
	{"simd_cache_hits_total", "In-memory result-cache hits.", "counter"},
	{"simd_cache_disk_hits_total", "Persistent-store hits.", "counter"},
	{"simd_cache_flight_waits_total", "Callers that waited on an identical in-flight request (its memory or disk read, or its run).", "counter"},
	{"simd_cache_upgrades_total", "Cache entries upgraded in place to a higher tier.", "counter"},
	{"simd_tier_fast_answers_total", "Jobs answered below full fidelity.", "counter"},
	{"simd_tier_upgrades_total", "Background full-fidelity upgrades that landed.", "counter"},
}

// TestMetricsGolden validates the whole /metrics payload with the
// Prometheus text-format parser and pins the exported names, help
// strings and types — including the gauge/counter distinction the old
// hand-rolled exporter got right only by special-casing one name.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	doc, _ := postJob(t, ts, specGCC)
	waitDone(t, s, doc.ID)

	body, status := getBody(t, ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d", status)
	}
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics payload is not valid exposition format: %v\n%s", err, body)
	}

	for _, g := range goldenMetrics {
		f, ok := fams[g.name]
		if !ok {
			t.Errorf("metric %s missing from /metrics", g.name)
			continue
		}
		if f.Help != g.help {
			t.Errorf("%s help = %q, want %q", g.name, f.Help, g.help)
		}
		if string(f.Type) != g.typ {
			t.Errorf("%s type = %q, want %q", g.name, f.Type, g.typ)
		}
	}

	// The run above went through the simrun dispatcher, so the merged
	// process-wide registry contributes the per-engine histogram too; its
	// _count is the run count.
	if f, ok := fams["simrun_engine_wall_seconds"]; !ok || f.Type != obs.KindHistogram {
		t.Errorf("simrun_engine_wall_seconds missing or not a histogram: %+v", f)
	}
	// Next to the run count, how many of those runs had a host thread
	// to generate on (whatever the count is on this host).
	if f, ok := fams["simrun_runs_pipelined_total"]; !ok || f.Type != obs.KindCounter {
		t.Errorf("simrun_runs_pipelined_total missing or not a counter: %+v", f)
	}

	// And the counters actually counted.
	if f, ok := fams["simd_jobs_submitted_total"]; ok {
		if len(f.Samples) != 1 || f.Samples[0].Value < 1 {
			t.Errorf("simd_jobs_submitted_total did not count the submission: %+v", f.Samples)
		}
	}
}

// A finished job's document carries the run's final progress heartbeat:
// the full retired count at the full engine's tier.
func TestJobDocProgress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	doc, _ := postJob(t, ts, specGCC)
	final := waitDone(t, s, doc.ID)
	if final.Progress == nil {
		t.Fatal("done job has no progress heartbeat")
	}
	if final.Progress.Retired == 0 {
		t.Errorf("final progress retired = 0")
	}
	if final.Progress.Budget == 0 || final.Progress.Retired < final.Progress.Budget {
		t.Errorf("final progress: retired %d of budget %d, want complete",
			final.Progress.Retired, final.Progress.Budget)
	}
}

// The job trace endpoint serves the lifecycle spans of a plain
// (non-tiered) run: queue wait, then the full engine bracketing the
// driver's warmup and measure phases, then the cache store.
func TestJobTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	doc, _ := postJob(t, ts, `{"bench":"gcc","insts":2000,"warmup":2000}`)
	waitDone(t, s, doc.ID)

	job, _ := s.Job(doc.ID)
	names := map[string]bool{}
	for _, sp := range job.Tracer().Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue", "engine:full", "warmup", "measure", "cache:store"} {
		if !names[want] {
			t.Errorf("span %q missing from job trace: have %v", want, names)
		}
	}

	body, status := getBody(t, ts.URL+"/v1/jobs/"+doc.ID+"/trace")
	if status != 200 {
		t.Fatalf("trace status = %d", status)
	}
	if !bytes.Contains(body, []byte(`"engine:full"`)) || !bytes.Contains(body, []byte(`"queue"`)) {
		t.Errorf("trace payload missing spans: %s", body)
	}

	if _, status := getBody(t, ts.URL+"/v1/jobs/nope/trace"); status != 404 {
		t.Errorf("trace of unknown job = %d, want 404", status)
	}
}

// pprof endpoints exist only when Config.Pprof opts in.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	if _, status := getBody(t, off.URL+"/debug/pprof/"); status != 404 {
		t.Errorf("pprof off: /debug/pprof/ = %d, want 404", status)
	}
	_, on := newTestServer(t, Config{Workers: 1, Pprof: true})
	if _, status := getBody(t, on.URL+"/debug/pprof/"); status != 200 {
		t.Errorf("pprof on: /debug/pprof/ = %d, want 200", status)
	}
}
