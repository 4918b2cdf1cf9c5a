package simrun_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// TestHostParFieldIsInert: the "hostpar" and "quantum" keys of a v3 spec
// selected the host-parallel engine that was removed; stored spec files and
// clients still send them. A spec that carries them is accepted by every
// front end — Spec.Scenario, the batch file cmd/sweep -f loads, POST
// /v1/jobs — fingerprints like the same spec without them and produces the
// same report.JSON bytes; a negative value is still refused naming the
// field; and discovery no longer advertises the knob.
func TestHostParFieldIsInert(t *testing.T) {
	const (
		plain = `{"bench":"gcc","copies":2,"insts":3000,"warmup":2000,"seed":5,"report":true}`
		keyed = `{"bench":"gcc","copies":2,"insts":3000,"warmup":2000,"seed":5,"report":true,"hostpar":2,"quantum":500}`
	)
	run := func(path string, s *simrun.Scenario) (string, []byte) {
		t.Helper()
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		raw, err := report.JSON(res.Result)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return fp, raw
	}
	fromSpec := func(raw string) *simrun.Scenario {
		t.Helper()
		sp, err := simrun.ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		s, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantFP, want := run("plain spec", fromSpec(plain))

	fp, got := run("Spec.Scenario", fromSpec(keyed))
	if fp != wantFP || !bytes.Equal(got, want) {
		t.Errorf("Spec.Scenario: fingerprint %s, want %s; report\n%s\nwant\n%s", fp, wantFP, got, want)
	}
	// As a scenario's own keys and as the file's defaults.
	for _, file := range []string{
		`{"scenarios":[` + keyed + `]}`,
		`{"defaults":{"hostpar":2,"quantum":500},"scenarios":[` + plain + `]}`,
	} {
		scs, err := simrun.LoadSpecs(strings.NewReader(file))
		if err != nil {
			t.Fatalf("LoadSpecs(%s): %v", file, err)
		}
		fp, got = run("LoadSpecs", scs[0])
		if fp != wantFP || !bytes.Equal(got, want) {
			t.Errorf("LoadSpecs(%s): fingerprint %s, want %s; report\n%s\nwant\n%s", file, fp, wantFP, got, want)
		}
	}

	srv, err := simd.New(simd.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	post := func(spec string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	status, body := post(keyed)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs with hostpar and quantum: status %d, body %s", status, body)
	}
	var doc simd.JobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Fingerprint != wantFP {
		t.Errorf("POST /v1/jobs: fingerprint %s, want %s", doc.Fingerprint, wantFP)
	}
	job, ok := srv.Job(doc.ID)
	if !ok {
		t.Fatalf("no job %s", doc.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", doc.ID)
	}
	if served := job.Doc().Result; !bytes.Equal(served, want) {
		t.Errorf("POST /v1/jobs: served\n%s\nwant\n%s", served, want)
	}
	// The same spec without the keys is the same job.
	status, body = post(plain)
	var dup simd.JobDoc
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || dup.ID != doc.ID {
		t.Errorf("POST /v1/jobs without the keys: status %d, job %s; want 200 and job %s", status, dup.ID, doc.ID)
	}

	for field, raw := range map[string]string{
		"hostpar": `{"bench":"gcc","hostpar":-1}`,
		"quantum": `{"bench":"gcc","quantum":-1}`,
	} {
		sp, err := simrun.ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Scenario(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Spec.Scenario(%s): err = %v, want one naming %s", raw, err, field)
		}
		if _, err := simrun.LoadSpecs(strings.NewReader(`{"scenarios":[` + raw + `]}`)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("LoadSpecs(%s): err = %v, want one naming %s", raw, err, field)
		}
		if status, body := post(raw); status != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("POST /v1/jobs %s: status %d, body %s; want 400 naming %s", raw, status, body, field)
		}
	}

	if _, ok := simrun.Knobs()["hostpar"]; ok {
		t.Error("simrun.Knobs() still advertises hostpar")
	}
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cat, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cat, []byte("hostpar")) {
		t.Errorf("GET /v1/catalog still advertises hostpar: %s", cat)
	}
}

// TestWorkScaleMustBoundTheRun: a PARSEC run's budget is its profile's total
// work times work_scale. A scale that leaves less than one instruction would
// be read by the generator as "no budget" and run to its deadline, and one
// that reaches 2^63 wraps, so both are refused by every front end —
// Spec.Scenario, the batch file cmd/sweep -f loads, POST /v1/jobs — naming
// the work scale. A SPEC profile has no total work to scale.
func TestWorkScaleMustBoundTheRun(t *testing.T) {
	srv, err := simd.New(simd.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		// An accepted unbounded job would never drain.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	for _, scale := range []string{"1e-300", "1e300"} {
		raw := `{"bench":"blackscholes","cores":2,"work_scale":` + scale + `}`
		sp, err := simrun.ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Scenario(); err == nil || !strings.Contains(err.Error(), "work scale") {
			t.Errorf("Spec.Scenario(%s): err = %v, want one naming the work scale", raw, err)
		}
		if _, err := simrun.LoadSpecs(strings.NewReader(`{"scenarios":[` + raw + `]}`)); err == nil || !strings.Contains(err.Error(), "work scale") {
			t.Errorf("LoadSpecs(%s): err = %v, want one naming the work scale", raw, err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "work scale") {
			t.Errorf("POST /v1/jobs %s: status %d, body %s; want 400 naming the work scale", raw, resp.StatusCode, body)
		}
	}

	s, err := simrun.Spec{Bench: "gcc", Insts: 1000, WorkScale: 1e-300}.Scenario()
	if err != nil {
		t.Fatalf("SPEC profile with a tiny work scale: %v", err)
	}
	if got := s.TotalInstBudget(); got != 1000 {
		t.Errorf("SPEC profile with a tiny work scale: budget %d, want 1000", got)
	}
}
