package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks the declaration against the driver's schema and
// against the catalogue the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", decl.RunSeconds)
	}
	if len(decl.Command) == 0 || len(decl.Command) > 32 {
		t.Errorf("command has %d elements", len(decl.Command))
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(decl.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, catalogue has %d, schema allows 2..8", n, len(workloads))
	}
	for i, w := range decl.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, catalogue %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: the reason must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []jsonMetric, want []metricDef, max int, bounded bool) {
		t.Helper()
		if len(got) < 1 || len(got) > max || len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, catalogue has %d, schema allows 1..%d", kind, len(got), len(want), max)
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: unit %q does not match %v", kind, m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, m.Name, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q: per-layer metrics have no bound", kind, m.Name)
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound != d.Bound):
				t.Errorf("%s %q: bound %v, catalogue %v, schema allows (0, 0.25]", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, 16, true)
	check("per_layer", decl.PerLayer, perLayer, 128, false)

	setup := false
	for _, m := range decl.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s with unit "s", better "lower"`)
	}
}

// TestSmoke runs every workload at the smoke sizing. One traced run does
// everything an untraced run does and more, so both result lines are checked
// on it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			r, code, err := runWorkload(config{workload: w.Name, seed: defaultSeed, smoke: true, trace: true, traceOut: tracePath}, &out)
			if err != nil || code != exitOK {
				t.Fatalf("exit %d, err %v\n%s", code, err, out.String())
			}
			for _, traced := range []bool{false, true} {
				res, defs := r.result(traced), metricDefs(traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: %s = %+v, want a value in %s", traced, d.Name, m, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want more than 0", d.Name, m.Value)
					}
				}
			}
			if !strings.Contains(out.String(), "layer budget:") || !strings.Contains(out.String(), "end to end") {
				t.Errorf("no layer budget in the output\n%s", out.String())
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("%s is not a Chrome trace with events (%v)", tracePath, err)
			}
		})
	}
}

// TestDifferentSeedsDifferentInputs: the seed must reach the program.
func TestDifferentSeedsDifferentInputs(t *testing.T) {
	a, b := newSweepBench(1, smokeSize), newSweepBench(2, smokeSize)
	if bytes.Equal(a.doc, b.doc) {
		t.Error("seeds 1 and 2 generate the same sweep document")
	}
	if !bytes.Equal(a.doc, newSweepBench(1, smokeSize).doc) {
		t.Error("seed 1 generates two different sweep documents")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanRec{
		{Name: "pass", StartUS: 0, DurUS: 100},
		{Name: "run", StartUS: 10, DurUS: 60},
		{Name: "warmup", StartUS: 15, DurUS: 20},
		{Name: "measure", StartUS: 35, DurUS: 30},
		{Name: "json", StartUS: 80, DurUS: 10},
		{Name: "other-track", TID: 1, StartUS: 0, DurUS: 7},
	}
	got := selfTimes(spans)
	want := map[string]float64{"pass": 30, "run": 10, "warmup": 20, "measure": 30, "json": 10}
	total := 0.0
	for name, us := range want {
		if got["pass"][name] != us {
			t.Errorf("self time of %s = %v, want %v", name, got["pass"][name], us)
		}
		total += got["pass"][name]
	}
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
	if got["other-track"]["other-track"] != 7 {
		t.Errorf("a span on another track nested under this one: %v", got)
	}
}
