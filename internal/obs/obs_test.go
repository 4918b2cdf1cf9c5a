package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRegistryText: counters, gauges and histograms render in sorted,
// deterministic exposition format with correct TYPE lines, and the
// payload round-trips through the package's own parser.
func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_jobs_total", "Jobs.").Add(3)
	r.Counter("t_engine_runs_total", "Runs per engine.", Label{"engine", "full"}).Inc()
	r.Counter("t_engine_runs_total", "Runs per engine.", Label{"engine", "statistical"}).Add(2)
	r.Gauge("t_queue_depth", "Waiting jobs.").Set(5)
	r.GaugeFunc("t_live", "Live value.", func() float64 { return 1.5 })
	h := r.Histogram("t_wall_seconds", "Wall clock.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE t_jobs_total counter",
		"# TYPE t_queue_depth gauge",
		"# TYPE t_live gauge",
		"# TYPE t_wall_seconds histogram",
		`t_engine_runs_total{engine="full"} 1`,
		`t_engine_runs_total{engine="statistical"} 2`,
		`t_wall_seconds_bucket{le="0.1"} 1`,
		`t_wall_seconds_bucket{le="1"} 2`,
		`t_wall_seconds_bucket{le="+Inf"} 3`,
		"t_wall_seconds_count 3",
		"t_queue_depth 5",
		"t_live 1.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("payload missing %q:\n%s", want, text)
		}
	}

	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("payload does not parse: %v\n%s", err, text)
	}
	if fams["t_jobs_total"].Type != KindCounter {
		t.Errorf("t_jobs_total parsed as %s", fams["t_jobs_total"].Type)
	}
	if fams["t_queue_depth"].Type != KindGauge {
		t.Errorf("t_queue_depth parsed as %s", fams["t_queue_depth"].Type)
	}
	if got := len(fams["t_engine_runs_total"].Samples); got != 2 {
		t.Errorf("engine counter has %d samples, want 2", got)
	}
}

// TestRegistryIdempotent: re-registering the same (name, labels) pair
// returns the same instrument; a kind conflict panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_x_total", "X.")
	b := r.Counter("t_x_total", "X.")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("t_x_total", "X as gauge.")
}

// TestWriteAllMerges: WriteAll merges multiple registries into one
// sorted payload with each family appearing once.
func TestWriteAllMerges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("t_a_total", "A.").Inc()
	b.Counter("t_b_total", "B.").Inc()
	var buf bytes.Buffer
	if err := WriteAll(&buf, a, b, nil); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "t_a_total 1") || !strings.Contains(text, "t_b_total 1") {
		t.Fatalf("merged payload incomplete:\n%s", text)
	}
	if strings.Index(text, "t_a_total") > strings.Index(text, "t_b_total") {
		t.Fatalf("families not sorted:\n%s", text)
	}
	if _, err := ParseText(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
}

// TestParseTextRejects: structurally broken payloads fail parsing —
// the property the /metrics bugfix test relies on.
func TestParseTextRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_metric 3\n",
		"bad value":           "# TYPE x counter\nx notanumber\n",
		"unknown type":        "# TYPE x summary\nx 1\n",
		"duplicate type":      "# TYPE x counter\n# TYPE x gauge\nx 1\n",
		"histogram no inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, payload := range cases {
		if _, err := ParseText(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestTracerRing: spans record in order, the ring bounds memory by
// dropping oldest, and the Chrome export is valid trace_event JSON.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Start("step").TID(i).Arg("i", int64(i)).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	if spans[0].TID != 2 || spans[3].TID != 5 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("chrome export wrong: %+v", doc)
	}
}

// TestNilSafety: every hot-path hook must no-op on nil receivers — the
// zero-cost-when-disabled contract.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Start("x").TID(1).Arg("k", 2).End()
	tr.Add(SpanRec{})
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer returned data")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var hb *Heartbeat
	hb.Tick(1)
	hb.Final(1)
	var o *Observer
	if o.ObsTracer() != nil {
		t.Fatal("nil observer returned a tracer")
	}
	var reg *Registry
	reg.Counter("x", "x").Inc()
	reg.Gauge("y", "y").Set(1)
	reg.Histogram("z", "z", nil).Observe(1)
	reg.GaugeFunc("w", "w", func() float64 { return 0 })
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
}

// TestHeartbeatThrottle: the first tick arms the clock, reports are
// rate-limited to Every, and Final always lands once armed.
func TestHeartbeatThrottle(t *testing.T) {
	var got []Progress
	hb := &Heartbeat{
		Emit:   func(p Progress) { got = append(got, p) },
		Every:  10 * time.Millisecond,
		Label:  "gcc",
		Tier:   "interval",
		Budget: 1000,
	}
	hb.Tick(10) // arms
	hb.Tick(20) // throttled
	if len(got) != 0 {
		t.Fatalf("heartbeat reported before interval elapsed: %+v", got)
	}
	time.Sleep(15 * time.Millisecond)
	hb.Tick(500)
	if len(got) != 1 {
		t.Fatalf("got %d reports, want 1", len(got))
	}
	p := got[0]
	if p.Retired != 500 || p.Budget != 1000 || p.Label != "gcc" || p.Tier != "interval" {
		t.Fatalf("bad report: %+v", p)
	}
	if p.MIPS <= 0 || p.ETASeconds <= 0 {
		t.Fatalf("speed/ETA not computed: %+v", p)
	}
	hb.Final(1000)
	if len(got) != 2 || got[1].Retired != 1000 {
		t.Fatalf("final report missing: %+v", got)
	}
}

// TestContextSpan: StartSpan works through a context and no-ops
// without one.
func TestContextSpan(t *testing.T) {
	tr := NewTracer(8)
	ctx := ContextWith(t.Context(), tr)
	StartSpan(ctx, "work").End()
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "work" {
		t.Fatalf("context span not recorded: %+v", spans)
	}
	StartSpan(t.Context(), "nowhere").End() // must not panic
	if FromContext(t.Context()) != nil {
		t.Fatal("empty context returned a tracer")
	}
}

// The zero-cost contract, measured: disabled (nil) hooks must compile
// down to a nil check and nothing else. The repository benchmark prints
// the macro version of this as obs.disabled_span_ns and
// obs.traced_overhead_pct on every traced run.
func BenchmarkDisabledTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("hot").Arg("k", 1).End()
	}
}

func BenchmarkDisabledHeartbeatTick(b *testing.B) {
	var hb *Heartbeat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hb.Tick(uint64(i))
	}
}

func BenchmarkEnabledTracerSpan(b *testing.B) {
	tr := NewTracer(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("hot").End()
	}
}
