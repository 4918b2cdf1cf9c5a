package simd_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/report"
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

// TestTieredServingSkipsCostlyEstimate: an un-pinned spec whose full run
// costs less than the statistical estimate is answered by the full engine
// directly — one done event, at the interval tier, with the direct run's
// bytes — rather than by a slower, less faithful estimate.
func TestTieredServingSkipsCostlyEstimate(t *testing.T) {
	_, ts := newTieredServer(t)
	spec := simrun.Spec{Bench: "gcc", Insts: 200_000, Warmup: 50_000}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc simd.JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sse, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	var done []simd.JobDoc
	sc := bufio.NewScanner(sse.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
			var ev simd.JobDoc
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Status == simd.StatusDone {
				done = append(done, ev)
			}
		}
	}
	if len(done) != 1 || done[0].Tier != string(simrun.TierInterval) {
		t.Fatalf("done events %+v, want one at tier %q", done, simrun.TierInterval)
	}
	if !bytes.Equal(done[0].Result, directPayload(t, spec)) {
		t.Fatalf("served payload differs from the direct full run's")
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	if !strings.Contains(buf.String(), "simd_tier_fast_answers_total 0") {
		t.Errorf("metrics report a fast answer:\n%s", buf.String())
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
	for _, want := range []string{"unknown engine", `"warp"`, "full", "statistical"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("400 body %q does not mention %q", body.Error, want)
		}
	}
}

// TestSubmitUnrunnableMachineRejected: a machine object the detailed core
// would spin on until MaxCycles (a zero-entry store buffer), or whose L1
// lines are not the 64 bytes every core model fetches and tracks, is a 400
// naming the field, not an accepted job that parks a worker or times the
// wrong lines.
func TestSubmitUnrunnableMachineRejected(t *testing.T) {
	_, ts := newTieredServer(t)
	for field, breakIt := range map[string]func(m *config.Machine){
		"Core.StoreBufferSize": func(m *config.Machine) { m.Core.StoreBufferSize = 0 },
		"Mem.L1I.LineSize":     func(m *config.Machine) { m.Mem.L1I.LineSize = 32 },
		// An unknown name, which branch.NewUnit would panic on.
		"Branch.Kind":      func(m *config.Machine) { m.Branch.Kind = "bogus" },
		"Mem.Interconnect": func(m *config.Machine) { m.Mem.Interconnect = "torus" },
	} {
		m := config.Default(1)
		breakIt(&m)
		spec, err := json.Marshal(simrun.Spec{Bench: "gcc", Model: "detailed", Insts: 20000, Machine: &m})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil {
			t.Fatalf("%s: status %d (%v), want 400", field, resp.StatusCode, err)
		}
		if !strings.Contains(body.Error, field) {
			t.Errorf("400 body %q does not name %s", body.Error, field)
		}
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
	for _, want := range []string{"full", "statistical"} {
		if !strings.Contains(engines, want) {
			t.Errorf("catalog engines %v missing %q", cat.Engines, want)
		}
	}
	if len(cat.Tiers) == 0 || cat.Tiers[0] != string(simrun.TierStatistical) {
		t.Errorf("catalog tiers %v not cheapest-first", cat.Tiers)
	}
}

// seedRetiredTier writes, under spec's fingerprint in a cache directory, the
// payload an estimator that no longer exists would have persisted: a
// wrong answer tagged with the "sampled" tier, in the on-disk format
// (payload plus SHA-256 integrity footer).
func seedRetiredTier(t *testing.T, dir string, spec simrun.Spec) {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var stale multicore.Result
	stale.Cycles, stale.TotalRetired = 1, uint64(spec.Insts)
	payload, err := report.JSONTiered(stale, "simpoint", "sampled")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	file := append(payload, "\n#simcache-sha256:"+hex.EncodeToString(sum[:])+"\n"...)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// directPayload is what the full engine answers for spec, encoded.
func directPayload(t *testing.T, spec simrun.Spec) []byte {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := simd.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestRetiredTierIsNeverDefinitive: a persisted answer tagged with a tier
// no registered engine produces any more ranks below every estimate, so
// neither a full-engine request nor a tiered job is served from it — both
// re-simulate and answer with the direct run's bytes.
func TestRetiredTierIsNeverDefinitive(t *testing.T) {
	spec := simrun.Spec{Bench: "mcf", Insts: 1_500_000, Warmup: 100_000}
	want := directPayload(t, spec)

	dir := t.TempDir()
	seedRetiredTier(t, dir, spec)
	cache, err := simrun.NewCache(simrun.CacheOpts{Dir: dir, Encode: simd.Encode, DecodeTier: simd.DecodeTier})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := cache.GetOrRun(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Source != simrun.SourceRun || !bytes.Equal(entry.Payload, want) {
		t.Fatalf("full request served from %s at tier %q, want a fresh run with the direct bytes", entry.Source, entry.Tier)
	}

	dir = t.TempDir()
	seedRetiredTier(t, dir, spec)
	if cache, err = simrun.NewCache(simrun.CacheOpts{Dir: dir, Encode: simd.Encode, DecodeTier: simd.DecodeTier}); err != nil {
		t.Fatal(err)
	}
	s, err := simd.New(simd.Config{Workers: 2, Cache: cache, TieredServing: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := settle(t, ts, string(body))
	if job.Tier == "sampled" {
		t.Fatalf("tiered job served the retired-tier payload")
	}
	final := job
	for deadline := time.Now().Add(60 * time.Second); final.Tier != string(simrun.TierInterval); final = getJob(t, ts, job.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("job never upgraded: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("tiered job's final payload differs from the direct full run's")
	}
}
