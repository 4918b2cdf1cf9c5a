package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// Encode is the service's canonical result encoding: the deterministic
// report.JSON summary. It is the cache's payload encoder, so cached and
// fresh results are byte-identical. Estimator-tier results carry their
// engine and tier in the payload; full-engine results stay untagged, so
// their payloads are byte-identical to a direct simrun.Run + report.JSON
// and an untagged payload always reads back as definitive.
func Encode(res simrun.Result) ([]byte, error) {
	if res.Engine != "" && res.Engine != simrun.DefaultEngine {
		return report.JSONTiered(res.Result, res.Engine, string(res.Tier))
	}
	return report.JSON(res.Result)
}

// DecodeTier recovers the fidelity tier of a persisted payload — the
// simrun cache's DecodeTier hook. Untagged payloads (full-engine results
// and payloads written before tiers existed) are definitive.
func DecodeTier(payload []byte) simrun.Tier {
	return simrun.Tier(report.PayloadTier(payload))
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON serves v with the API's standard headers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
	w.Write([]byte("\n"))
}

// writeError serves the API's error shape.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds the request body of a submission: a spec is a few
// hundred bytes, a machine override a few kilobytes.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := simrun.ParseSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("simd: request body exceeds the %d-byte limit", tooLarge.Limit))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, dup, err := s.SubmitSpec(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		var bad *BadRequestError
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	doc := job.Doc()
	w.Header().Set("Location", "/v1/jobs/"+doc.ID)
	status := http.StatusAccepted
	if dup {
		status = http.StatusOK
	}
	writeJSON(w, status, doc)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	docs := s.Jobs()
	type item struct {
		ID     string `json:"id"`
		Status Status `json:"status"`
	}
	items := make([]item, len(docs))
	for i, d := range docs {
		items[i] = item{ID: d.ID, Status: d.Status}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": items})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Doc())
}

// handleEvents streams job-status transitions as server-sent events: one
// "status" event per transition, starting with the current state, ending
// after the terminal state. Live heartbeats from the running simulation
// arrive between transitions as "progress" events, and fleet routing
// changes (worker assignment, retry, reassignment) as "dispatch" events,
// both carrying the same document shape (the changed field says which).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no such job"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("simd: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	events := job.Subscribe()
	last, lastRoute := "", ""
	for {
		select {
		case doc, open := <-events:
			if !open {
				return
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				return
			}
			// A document whose status and tier match the previous event
			// is not a transition: a changed route (worker/attempt) makes
			// it a dispatch event, otherwise it is a progress heartbeat.
			key := string(doc.Status) + "|" + doc.Tier
			route := fmt.Sprintf("%s|%d|%s", doc.Worker, doc.Attempt, doc.Dispatch)
			event := "status"
			switch {
			case key != last:
				last, lastRoute = key, route
			case route != lastRoute:
				event = "dispatch"
				lastRoute = route
			case doc.Progress != nil:
				event = "progress"
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Catalog describes everything a client can ask the service to simulate.
// Engines lists the registered answering engines (Spec.Engine values) and
// Tiers the fidelity lattice their answers are tagged with, cheapest
// first.
type Catalog struct {
	Models     []string            `json:"models"`
	Engines    []string            `json:"engines"`
	Tiers      []string            `json:"tiers"`
	Knobs      map[string][]string `json:"knobs"`
	Benchmarks CatalogBenchmarks   `json:"benchmarks"`
}

// CatalogBenchmarks lists the benchmark profiles by suite.
type CatalogBenchmarks struct {
	SPEC   []string `json:"spec"`
	PARSEC []string `json:"parsec"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat := Catalog{
		Models:  simrun.Models(),
		Engines: simrun.Engines(),
		Knobs:   simrun.Knobs(),
	}
	for _, t := range simrun.Tiers() {
		cat.Tiers = append(cat.Tiers, string(t))
	}
	for _, p := range workload.SPEC() {
		cat.Benchmarks.SPEC = append(cat.Benchmarks.SPEC, p.Name)
	}
	for _, p := range workload.PARSEC() {
		cat.Benchmarks.PARSEC = append(cat.Benchmarks.PARSEC, p.Name)
	}
	sort.Strings(cat.Benchmarks.SPEC)
	sort.Strings(cat.Benchmarks.PARSEC)
	writeJSON(w, http.StatusOK, cat)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition: the server's own
// registry (service traffic, queue occupancy, result-cache counters)
// merged with the process-wide registry (per-engine runs and wall-clock
// histograms, batch occupancy). Every family carries a
// correct `# TYPE` line — the registry knows each metric's kind, unlike
// the hand-rolled exporter this replaced.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteAll(w, s.reg, obs.Default())
}

// handleTrace serves the job's recorded lifecycle spans (queue wait,
// engine runs, cache store, tier upgrade — and, in coordinator mode,
// dispatch attempts with each worker's remote spans spliced onto named
// rows) as JSON. On nodes that disabled job traces the endpoint is a
// 404 that says how to turn them back on, not an empty 200 a caller
// could mistake for "this job did nothing".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no such job"))
		return
	}
	tr := job.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("simd: job traces are disabled on this node (restart with -job-trace to enable)"))
		return
	}
	spans := tr.Spans()
	if spans == nil {
		spans = []obs.SpanRec{}
	}
	doc := map[string]any{
		"job":     job.Doc().ID,
		"spans":   spans,
		"dropped": tr.Dropped(),
	}
	if rows := tr.TIDNames(); rows != nil {
		// Row labels for stitched fleet traces: tid 0 is the coordinator,
		// each dispatched-to worker has its own named row.
		doc["rows"] = rows
	}
	writeJSON(w, http.StatusOK, doc)
}
