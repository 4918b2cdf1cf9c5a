package simd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	// The estimator engines tiered serving answers from.
	_ "repro/internal/engine"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// newTieredServer builds a tiered server over an httptest front end.
func newTieredServer(t *testing.T) (*simd.Server, *httptest.Server) {
	t.Helper()
	cache, err := simrun.NewCache(simrun.CacheOpts{Encode: simd.Encode, DecodeTier: simd.DecodeTier})
	if err != nil {
		t.Fatal(err)
	}
	s, err := simd.New(simd.Config{Workers: 2, Cache: cache, TieredServing: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJob(t *testing.T, ts *httptest.Server, id string) simd.JobDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc simd.JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTierUpgradeEndToEnd is the tiered-serving contract over the HTTP
// API: a fresh submission is answered at the statistical tier first,
// then — same job, same fingerprint — upgraded in place to the interval
// tier when the background full run lands, with the SSE stream staying
// open until the upgraded document is delivered.
func TestTierUpgradeEndToEnd(t *testing.T) {
	_, ts := newTieredServer(t)

	// A budget big enough that the full interval run clearly outlasts
	// the (bounded, ~600k-instruction) statistical estimate.
	spec := `{"bench":"gcc","insts":3000000,"warmup":100000}`
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
	fp := doc.Fingerprint

	// Phase 1: the job goes done at the statistical tier long before
	// the full run can finish.
	deadline := time.Now().Add(30 * time.Second)
	for doc.Status != simd.StatusDone {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", doc)
		}
		time.Sleep(2 * time.Millisecond)
		doc = getJob(t, ts, doc.ID)
	}
	if doc.Tier != string(simrun.TierStatistical) {
		t.Fatalf("first answer at tier %q, want %q (upgrade already landed? budget too small)", doc.Tier, simrun.TierStatistical)
	}
	if len(doc.Result) == 0 || doc.Fingerprint != fp {
		t.Fatalf("statistical answer malformed: %+v", doc)
	}
	var est struct {
		Tier string `json:"tier"`
	}
	if err := json.Unmarshal(doc.Result, &est); err != nil || est.Tier != "statistical" {
		t.Fatalf("estimate payload untagged (tier %q, err %v)", est.Tier, err)
	}

	// Phase 2: the SSE stream on the done-but-pending job delivers the
	// upgraded document and then closes.
	sse, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	var last simd.JobDoc
	sc := bufio.NewScanner(sse.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			if err := json.Unmarshal(data, &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last.Tier != string(simrun.TierInterval) {
		t.Fatalf("final SSE document at tier %q, want %q", last.Tier, simrun.TierInterval)
	}
	if last.Fingerprint != fp {
		t.Fatalf("fingerprint changed across the upgrade: %s -> %s", fp, last.Fingerprint)
	}
	if last.Status != simd.StatusDone || len(last.Result) == 0 {
		t.Fatalf("upgraded document malformed: %+v", last)
	}
	// The full payload is untagged — definitive.
	var fin struct {
		Tier string `json:"tier"`
	}
	if err := json.Unmarshal(last.Result, &fin); err != nil || fin.Tier != "" {
		t.Fatalf("full payload should be untagged, got tier %q (err %v)", fin.Tier, err)
	}

	// The polled document agrees with the stream, and the upgrade shows
	// up in the metrics.
	doc = getJob(t, ts, doc.ID)
	if doc.Tier != string(simrun.TierInterval) {
		t.Fatalf("polled document at tier %q after upgrade", doc.Tier)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	for _, want := range []string{
		"simd_cache_upgrades_total 1",
		"simd_tier_fast_answers_total 1",
		"simd_tier_upgrades_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTierServingHonorsPinnedEngine: a spec that pins the full engine is
// served at full fidelity directly, no estimate phase.
func TestTierServingHonorsPinnedEngine(t *testing.T) {
	_, ts := newTieredServer(t)
	spec := `{"bench":"mcf","engine":"full","insts":20000,"warmup":5000}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var doc simd.JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for doc.Status != simd.StatusDone {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", doc)
		}
		time.Sleep(2 * time.Millisecond)
		doc = getJob(t, ts, doc.ID)
	}
	if doc.Tier != string(simrun.TierInterval) {
		t.Fatalf("pinned-full job answered at tier %q", doc.Tier)
	}
}

// settle submits spec and polls its job until it is done.
func settle(t *testing.T, ts *httptest.Server, spec string) simd.JobDoc {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var doc simd.JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(30 * time.Second); doc.Status != simd.StatusDone; doc = getJob(t, ts, doc.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", doc)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return doc
}

// TestPinnedEnginesDoNotShareJobs: one fingerprint pinned to two engines is
// two jobs. A "full" pin submitted after a "statistical" pin of the same
// scenario gets a full answer, not the estimate; an identical submission
// still joins the job it duplicates.
func TestPinnedEnginesDoNotShareJobs(t *testing.T) {
	_, ts := newTieredServer(t)
	est := settle(t, ts, `{"bench":"gcc","insts":200000,"engine":"statistical"}`)
	full := settle(t, ts, `{"bench":"gcc","insts":200000,"engine":"full"}`)
	if est.Fingerprint != full.Fingerprint {
		t.Fatalf("the engine pin moved the fingerprint: %s vs %s", est.Fingerprint, full.Fingerprint)
	}
	if est.ID == full.ID {
		t.Fatalf("statistical and full pins share job %s", est.ID)
	}
	if est.Tier != string(simrun.TierStatistical) || full.Tier != string(simrun.TierInterval) {
		t.Fatalf("tiers %q then %q, want statistical then interval", est.Tier, full.Tier)
	}
	if again := settle(t, ts, `{"bench":"gcc","insts":200000,"engine":"full"}`); again.ID != full.ID {
		t.Fatalf("identical full pin got job %s, want %s", again.ID, full.ID)
	}
}

// TestSubmitUnknownEngineRejected: the loud-rejection satellite over
// HTTP — an unknown engine is a 400 whose message lists the registered
// engines.
func TestSubmitUnknownEngineRejected(t *testing.T) {
	_, ts := newTieredServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcc","engine":"warp"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"unknown engine", `"warp"`, "full", "statistical", "simpoint"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("400 body %q does not mention %q", body.Error, want)
		}
	}
}

// TestSubmitUnrunnableMachineRejected: a machine object the detailed core
// would spin on until MaxCycles (a zero-entry store buffer) is a 400 naming
// the field, not an accepted job that parks a worker.
func TestSubmitUnrunnableMachineRejected(t *testing.T) {
	_, ts := newTieredServer(t)
	m := config.Default(1)
	m.Core.StoreBufferSize = 0
	spec, err := json.Marshal(simrun.Spec{Bench: "gcc", Model: "detailed", Insts: 20000, Machine: &m})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "Core.StoreBufferSize") {
		t.Errorf("400 body %q does not name Core.StoreBufferSize", body.Error)
	}
}

// TestSubmitDirectoryCoreLimitRejected: a directory machine wider than the
// directory's 64-bit sharer bitmap is a 400 naming the field, not an
// accepted job that fails with an engine panic and a stack trace.
func TestSubmitDirectoryCoreLimitRejected(t *testing.T) {
	_, ts := newTieredServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcc","copies":65,"coherence":"directory","insts":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "Mem.Coherence") {
		t.Errorf("400 body %q does not name Mem.Coherence", body.Error)
	}
}

// TestCatalogListsEnginesAndTiers: the catalog advertises the registered
// engines and the tier lattice so clients can discover what to pin.
func TestCatalogListsEnginesAndTiers(t *testing.T) {
	_, ts := newTieredServer(t)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat simd.Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	engines := strings.Join(cat.Engines, ",")
	for _, want := range []string{"full", "statistical", "simpoint"} {
		if !strings.Contains(engines, want) {
			t.Errorf("catalog engines %v missing %q", cat.Engines, want)
		}
	}
	if len(cat.Tiers) == 0 || cat.Tiers[0] != string(simrun.TierStatistical) {
		t.Errorf("catalog tiers %v not cheapest-first", cat.Tiers)
	}
}
