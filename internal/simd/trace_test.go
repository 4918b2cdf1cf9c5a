package simd_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// TestTieredJobTraceOrder is the tracing acceptance path end to end: a
// tiered job's trace at /v1/jobs/{id}/trace contains the queue wait,
// the statistical estimate, the background full run and the upgrade
// settle, in that start order.
func TestTieredJobTraceOrder(t *testing.T) {
	_, ts := newTieredServer(t)

	// Big enough that the full run costs more than the statistical
	// estimate, which tiered serving then answers from first.
	spec := `{"bench":"gcc","insts":1500000,"warmup":20000}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var doc simd.JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// Wait for the terminal document to land at full fidelity — the
	// upgrade settle is the last span the trace records.
	deadline := time.Now().Add(60 * time.Second)
	for doc.Status != simd.StatusDone || doc.Tier != string(simrun.TierInterval) {
		if time.Now().After(deadline) {
			t.Fatalf("job never upgraded: %+v", doc)
		}
		time.Sleep(5 * time.Millisecond)
		doc = getJob(t, ts, doc.ID)
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tresp.StatusCode)
	}
	var trace struct {
		Job     string        `json:"job"`
		Spans   []obs.SpanRec `json:"spans"`
		Dropped uint64        `json:"dropped"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.Job != doc.ID {
		t.Fatalf("trace job = %q, want %q", trace.Job, doc.ID)
	}

	// First-start time per span name; the lifecycle spans must each
	// appear and start in lifecycle order.
	starts := map[string]int64{}
	for _, sp := range trace.Spans {
		if _, seen := starts[sp.Name]; !seen {
			starts[sp.Name] = sp.StartUS
		}
	}
	order := []string{"queue", "engine:statistical", "engine:full", "upgrade"}
	prev := int64(-1)
	for _, name := range order {
		at, ok := starts[name]
		if !ok {
			t.Fatalf("span %q missing from trace: have %v", name, starts)
		}
		if at < prev {
			t.Errorf("span %q starts at %dus, before its predecessor (%dus): order %v broken",
				name, at, prev, order)
		}
		prev = at
	}
}
