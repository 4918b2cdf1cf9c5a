package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/simrun"
)

const specGCC = `{"bench":"gcc","insts":2000,"report":true}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (JobDoc, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc JobDoc
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc, resp.StatusCode
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

func waitDone(t *testing.T, s *Server, id string) JobDoc {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("no such job %s", id)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return job.Doc()
}

// The acceptance path: two identical submissions execute the simulator
// exactly once, and both bodies carry a result bit-identical to a direct
// simrun.Run of the same scenario.
func TestSubmitPollDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	doc, status := postJob(t, ts, specGCC)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", status)
	}
	if doc.Status == StatusDone || doc.ID == "" {
		t.Fatalf("fresh job doc: %+v", doc)
	}
	waitDone(t, s, doc.ID)

	firstBody, status := getBody(t, ts.URL+"/v1/jobs/"+doc.ID)
	if status != http.StatusOK {
		t.Fatalf("poll status = %d", status)
	}

	// Identical second submission: deduplicated onto the same job,
	// served from cache, byte-identical body.
	doc2, status := postJob(t, ts, specGCC)
	if status != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200", status)
	}
	if doc2.ID != doc.ID {
		t.Fatalf("duplicate submission got a new job: %s vs %s", doc2.ID, doc.ID)
	}
	secondBody, _ := getBody(t, ts.URL+"/v1/jobs/"+doc.ID)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("identical submissions served different bodies:\n%s\n%s", firstBody, secondBody)
	}
	if stats := s.CacheStats(); stats.Runs != 1 {
		t.Fatalf("simulator ran %d times for identical submissions, want 1", stats.Runs)
	}

	// The job's result field is bit-identical to a direct run.
	spec, err := simrun.ParseSpec(strings.NewReader(specGCC))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	directRaw, err := report.JSON(direct.Result)
	if err != nil {
		t.Fatal(err)
	}
	var served JobDoc
	if err := json.Unmarshal(firstBody, &served); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(served.Result), directRaw) {
		t.Fatalf("served result differs from direct run:\n%s\n%s", served.Result, directRaw)
	}
}

func TestDistinctSpecsRunSeparately(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	a, _ := postJob(t, ts, specGCC)
	b, _ := postJob(t, ts, `{"bench":"gcc","insts":2000,"seed":7,"report":true}`)
	if a.ID == b.ID {
		t.Fatalf("different specs share a job")
	}
	waitDone(t, s, a.ID)
	waitDone(t, s, b.ID)
	if stats := s.CacheStats(); stats.Runs != 2 {
		t.Fatalf("stats = %+v, want 2 runs", stats)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, spec := range map[string]string{
		"unknown bench": `{"bench":"bogus"}`,
		"unknown knob":  `{"bench":"gcc","fabric":"torus"}`,
		"typo field":    `{"bench":"gcc","predcitor":"tage"}`,
		"not json":      `hello`,
		// Specs pinned to pre-break stream formats: their expected
		// results no longer exist in this build, so they must be
		// rejected, not silently renumbered.
		"stale version v1": `{"bench":"gcc","version":1}`,
		"stale version v2": `{"bench":"gcc","version":2}`,
	} {
		if _, status := postJob(t, ts, spec); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, status)
		}
	}
	if _, status := getBody(t, ts.URL+"/v1/jobs/j-nope"); status != http.StatusNotFound {
		t.Errorf("missing job: status != 404")
	}
}

// TestSubmitRejectsTrailingData: a body is one spec. A second spec (with a
// typo) and junk after the first are a 400 naming the trailing data, not a
// gcc job.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcc"}{"bench":"mcf","predcitor":"x"} junk`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "trailing data") {
		t.Errorf("status %d, error %q; want 400 naming the trailing data", resp.StatusCode, body.Error)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs after the refused submission", len(jobs))
	}
}

// TestSubmitBoundsRequestBody: a submission one byte past the 1 MiB bound
// is refused with a 413 that names the limit, and no job is created.
func TestSubmitBoundsRequestBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	head := `{"bench":"`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(head+strings.Repeat("a", maxBodyBytes+1-len(head))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body.Error, "1048576-byte limit") {
		t.Errorf("status %d, error %q; want 413 naming the limit", resp.StatusCode, body.Error)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs after the refused submission", len(jobs))
	}
}

// TestSubmitStaleVersionMessage pins the rejection body of a v2-pinned
// spec: the 400 must say which format the spec pinned, which one the
// build speaks, and that the mismatch is deliberate — the operator's
// only clue their expected results were renumbered by the v3 break.
func TestSubmitStaleVersionMessage(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcc","version":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pinned to stream format v2",
		fmt.Sprintf("speaks v%d", simrun.SpecVersion),
		"deliberately incompatible",
	} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("rejection body missing %q: %s", want, body.Error)
		}
	}
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc, _ := postJob(t, ts, specGCC)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var statuses []Status
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobDoc
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, ev.Status)
	}
	// The stream closes after the terminal event; the subscriber always
	// sees the current state first and "done" last.
	if len(statuses) == 0 || statuses[len(statuses)-1] != StatusDone {
		t.Fatalf("event statuses = %v, want trailing %s", statuses, StatusDone)
	}
}

func TestCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, status := getBody(t, ts.URL+"/v1/catalog")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var cat Catalog
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	has := func(list []string, want string) bool {
		for _, v := range list {
			if v == want {
				return true
			}
		}
		return false
	}
	if !has(cat.Models, "interval") || !has(cat.Models, "detailed") {
		t.Errorf("models = %v", cat.Models)
	}
	if !has(cat.Knobs["fabric"], "mesh") || !has(cat.Knobs["predictor"], "tage") {
		t.Errorf("knobs = %v", cat.Knobs)
	}
	if !has(cat.Benchmarks.SPEC, "gcc") || len(cat.Benchmarks.PARSEC) == 0 {
		t.Errorf("benchmarks = %+v", cat.Benchmarks)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if body, status := getBody(t, ts.URL+"/healthz"); status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", status, body)
	}
	doc, _ := postJob(t, ts, specGCC)
	waitDone(t, s, doc.ID)
	postJob(t, ts, specGCC)

	body, status := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	text := string(body)
	for _, line := range []string{
		"simd_jobs_submitted_total 1",
		"simd_jobs_deduplicated_total 1",
		"simd_cache_runs_total 1",
		"simd_queue_depth 0",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q:\n%s", line, text)
		}
	}
}

// Drain refuses new work, finishes queued and in-flight jobs, and leaves
// the server idle — the SIGTERM path of cmd/simd.
func TestDrainFinishesInFlight(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A heavier job plus a queued one behind the single worker.
	slow, _ := postJob(t, ts, `{"bench":"gcc","insts":400000}`)
	queued, _ := postJob(t, ts, `{"bench":"gcc","insts":2000}`)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{slow.ID, queued.ID} {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if doc := job.Doc(); doc.Status != StatusDone {
			t.Errorf("after drain, job %s status = %s, want done", id, doc.Status)
		}
	}

	// Draining servers advertise it and refuse new submissions.
	if _, status := getBody(t, ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: status = %d, want 503", status)
	}
	if _, status := postJob(t, ts, specGCC); status != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status = %d, want 503", status)
	}
}

// Subscribing while the job completes must neither panic (send on closed
// channel) nor race; run with -race. Regression test for the initial
// Subscribe send racing a terminal setStatus.
func TestSubscribeDuringCompletion(t *testing.T) {
	for i := 0; i < 500; i++ {
		job := newJob("j-test", "fp", simrun.Spec{}, nil)
		done := make(chan struct{})
		go func() {
			job.setStatus(StatusRunning, "", "", nil, "")
			job.setStatus(StatusDone, "run", "interval", []byte("{}"), "")
			close(done)
		}()
		var last Status
		for doc := range job.Subscribe() {
			last = doc.Status
		}
		<-done
		if last != StatusDone {
			t.Fatalf("iteration %d: last status = %s, want done", i, last)
		}
	}
}

// The job table is bounded: old finished jobs are evicted, but their
// results stay a cache hit away.
func TestJobTableEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxJobs: 2})
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		doc, status := postJob(t, ts, fmt.Sprintf(`{"bench":"gcc","insts":2000,"seed":%d}`, seed))
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		ids = append(ids, doc.ID)
		waitDone(t, s, doc.ID)
	}
	if _, status := getBody(t, ts.URL+"/v1/jobs/"+ids[0]); status != http.StatusNotFound {
		t.Errorf("oldest job survived eviction (status %d)", status)
	}
	if _, status := getBody(t, ts.URL+"/v1/jobs/"+ids[2]); status != http.StatusOK {
		t.Errorf("newest job was evicted (status %d)", status)
	}
	// Resubmitting the evicted scenario is a new job but a cache hit.
	runsBefore := s.CacheStats().Runs
	doc, _ := postJob(t, ts, `{"bench":"gcc","insts":2000,"seed":1}`)
	final := waitDone(t, s, doc.ID)
	if final.Status != StatusDone || final.Cache != string(simrun.SourceMemory) {
		t.Errorf("resubmit after eviction: %+v, want done from memory", final)
	}
	if runs := s.CacheStats().Runs; runs != runsBefore {
		t.Errorf("resubmit after eviction re-ran the simulator (%d -> %d)", runsBefore, runs)
	}
}

func TestQueueFull(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	// Occupy the worker, fill the one queue slot, then overflow. The
	// busy job is big enough (hundreds of milliseconds even at full
	// batched-stream speed) that the worker still holds it while the
	// follow-ups arrive.
	postJob(t, ts, `{"bench":"gcc","insts":8000000,"seed":1}`)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		_, status := postJob(t, ts, fmt.Sprintf(`{"bench":"gcc","insts":2000,"seed":%d}`, 100+i))
		if status == http.StatusTooManyRequests {
			break
		}
		if status != http.StatusAccepted {
			t.Fatalf("unexpected status %d", status)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
}
