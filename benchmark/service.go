package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// clients is the closed loop's client count: each waits for a reply before
// sending its next request. Two, because the reference host has two CPUs.
const clients = 2

// serviceSize is the per-client operation count of each phase of one pass.
type serviceSize struct {
	cold, hits, tiered, tieredInsts, fleet int
}

// request is one spec as the service sees it, with the answers a direct
// Scenario.Run + simd.Encode gives for it.
type request struct {
	spec simrun.Spec
	body []byte
	// full is the definitive payload; estimate the cheapest tier's (tiered
	// requests only).
	full, estimate []byte
	insts          uint64
}

// serviceBench is service-mix: a tiered single node and a two-worker fleet
// behind httptest, driven by two closed-loop clients through four phases.
// Every pass builds fresh servers, so the cold phase is cold every time.
type serviceBench struct {
	seed int64
	sz   size
	// cold and tiered are indexed [client][i]; the fleet phase sends the
	// first sz.service.fleet cold requests of each client to the
	// coordinator, so both routes answer identical spec shapes.
	cold, tiered [clients][]*request
	// node and coord survive the last pass for layers to inspect.
	lastNode  *node
	lastFleet *fleetNode
}

func newServiceBench(seed int64, sz size) *serviceBench {
	return &serviceBench{seed: seed, sz: sz}
}

func (b *serviceBench) passes() int { return b.sz.passCount(4) }

func (b *serviceBench) close() {
	if b.lastNode != nil {
		b.lastNode.close()
		b.lastNode = nil
	}
	if b.lastFleet != nil {
		b.lastFleet.close()
		b.lastFleet = nil
	}
}

func newRequest(sp simrun.Spec) (*request, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return &request{spec: sp, body: body}, nil
}

// direct answers the request without the service: the bytes every served,
// cache-hit, upgraded and fleet-routed answer must equal.
func (q *request) direct(tiered bool) error {
	sc, err := q.spec.Scenario()
	if err != nil {
		return err
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	if q.full, err = simd.Encode(res); err != nil {
		return err
	}
	q.insts = res.TotalRetired
	if !tiered {
		return nil
	}
	est, err := sc.ForEngine(simrun.CheapestEngineFor(sc).Name)
	if err != nil {
		return err
	}
	eres, err := est.Run(context.Background())
	if err != nil {
		return err
	}
	q.estimate, err = simd.Encode(eres)
	return err
}

func (b *serviceBench) setUp() error {
	b.close()
	s := b.sz.service
	predictors := []string{"local", "gshare", "tournament"}
	for c := 0; c < clients; c++ {
		b.cold[c], b.tiered[c] = nil, nil
		for i := 0; i < s.cold; i++ {
			k := c*s.cold + i
			q, err := newRequest(simrun.Spec{
				Bench: specSet[k%len(specSet)], Model: "interval", Engine: "full",
				Insts: 200_000 / b.sz.div, Warmup: 200_000 / b.sz.div,
				Predictor: predictors[(k/len(specSet))%len(predictors)],
				Seed:      seedPtr(b.seed + int64(k)),
			})
			if err != nil {
				return err
			}
			if err := q.direct(false); err != nil {
				return err
			}
			b.cold[c] = append(b.cold[c], q)
		}
		for i := 0; i < s.tiered; i++ {
			k := c*s.tiered + i
			// Un-pinned: tiered serving answers from the statistical
			// engine first and upgrades in place.
			q, err := newRequest(simrun.Spec{
				Bench: specSet[k%len(specSet)], Model: "interval",
				Insts: s.tieredInsts, Warmup: 200_000 / b.sz.div,
				Seed: seedPtr(b.seed + 1000 + int64(k)),
			})
			if err != nil {
				return err
			}
			if err := q.direct(true); err != nil {
				return err
			}
			b.tiered[c] = append(b.tiered[c], q)
		}
	}
	// The warm-up pass: a few requests down every route but the tiered
	// one, whose engines the direct runs above have already exercised.
	warm := serviceSize{cold: min(2, s.cold), hits: min(50, s.hits), fleet: min(2, s.fleet)}
	if p := b.run(warm, nil); p.failed > 0 {
		return fmt.Errorf("warm-up pass: %d operations failed", p.failed)
	}
	return nil
}

// node is one simd server behind httptest.
type node struct {
	srv *simd.Server
	ts  *httptest.Server
}

func newNode(cfg simd.Config, mount func(*http.ServeMux)) (*node, error) {
	srv, err := simd.New(cfg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	if mount != nil {
		mount(mux)
	}
	mux.Handle("/", srv.Handler())
	return &node{srv: srv, ts: httptest.NewServer(mux)}, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.srv.Drain(ctx) // the timeout only turns a graceful drain into a hard stop
	n.ts.Close()
}

// fleetNode is a coordinator-mode server with two in-process workers.
type fleetNode struct {
	*node
	coord   *fleet.Coordinator
	workers []*httptest.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func newCache() (*simrun.Cache, error) {
	return simrun.NewCache(simrun.CacheOpts{Encode: simd.Encode, DecodeTier: simd.DecodeTier})
}

func newFleetNode() (*fleetNode, error) {
	cache, err := newCache()
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Cache: cache, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	n, err := newNode(simd.Config{Workers: clients, Cache: cache, Fleet: coord}, coord.Mount)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleetNode{node: n, coord: coord, cancel: cancel}
	for i := 0; i < 2; i++ {
		wcache, err := newCache()
		if err != nil {
			f.close()
			return nil, err
		}
		var w *fleet.Worker
		ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			w.Handler().ServeHTTP(rw, r)
		}))
		f.workers = append(f.workers, ws)
		w, err = fleet.NewWorker(fleet.WorkerConfig{
			ID: fmt.Sprintf("w%d", i+1), SelfURL: ws.URL, Coordinator: n.ts.URL,
			Cache: wcache, Registry: obs.NewRegistry(),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			w.Start(ctx) // returns once ctx is cancelled
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Workers() < 2 {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet workers never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *fleetNode) close() {
	f.cancel()
	f.wg.Wait()
	for _, ws := range f.workers {
		ws.Close()
	}
	f.node.close()
}

// answer is what a client saw for one submission.
type answer struct {
	id string
	// first is the latency from submit to the first done document and
	// last to the final one; they differ only when the job was upgraded.
	first, last           float64
	firstBytes, lastBytes []byte
	submitted             time.Time
}

// client is one closed-loop caller with its own connection pool.
type client struct {
	http *http.Client
}

// The timeout bounds a whole exchange, event stream included: a job that
// never settles fails its operation instead of hanging the run.
func newClient() *client {
	return &client{http: &http.Client{Timeout: 90 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit posts one spec and reads the whole reply.
func (c *client) submit(base string, body []byte) (simd.JobDoc, error) {
	var doc simd.JobDoc
	resp, err := c.http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return doc, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return doc, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return doc, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	err = json.Unmarshal(raw, &doc)
	return doc, err
}

// ask submits one spec and follows the job's event stream to its end: the
// first done document and, under tiered serving, the upgraded one.
func (c *client) ask(base string, body []byte) (answer, error) {
	a := answer{submitted: time.Now()}
	doc, err := c.submit(base, body)
	if err != nil {
		return a, err
	}
	a.id = doc.ID
	if doc.Status == simd.StatusDone && doc.Tier != string(simrun.TierStatistical) {
		a.first = seconds(time.Since(a.submitted))
		a.last, a.firstBytes, a.lastBytes = a.first, doc.Result, doc.Result
		return a, nil
	}
	resp, err := c.http.Get(base + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("events: %s", resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev simd.JobDoc
			if jerr := json.Unmarshal([]byte(data), &ev); jerr != nil {
				return a, jerr
			}
			switch ev.Status {
			case simd.StatusFailed:
				return a, fmt.Errorf("job %s failed: %s", ev.ID, ev.Error)
			case simd.StatusDone:
				now := seconds(time.Since(a.submitted))
				if a.firstBytes == nil {
					a.first, a.firstBytes = now, ev.Result
				}
				a.last, a.lastBytes = now, ev.Result
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return a, err
		}
	}
	if a.firstBytes == nil {
		return a, fmt.Errorf("job %s: event stream ended before done", doc.ID)
	}
	return a, nil
}

// phase runs fn once per client, concurrently, and returns the wall clock.
func phase(fn func(c int)) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
	return seconds(time.Since(t0))
}

func (b *serviceBench) pass(tr *obs.Tracer) pass { return b.run(b.sz.service, tr) }

// run is one pass at the given per-client counts. The pass's wall clock is
// the sum of its four phases; building and draining the servers is not part
// of it.
func (b *serviceBench) run(s serviceSize, tr *obs.Tracer) pass {
	b.close()
	p := pass{lat: map[string][]float64{}}
	single, err := newNode(simd.Config{Workers: clients, TieredServing: true}, nil)
	if err != nil {
		p.failed, p.ops = 1, 1
		return p
	}
	b.lastNode = single
	fl, err := newFleetNode()
	if err != nil {
		p.failed, p.ops = 1, 1
		return p
	}
	b.lastFleet = fl

	var mu sync.Mutex
	type slot struct {
		first, last []byte
		mips        float64
	}
	coldOut := make([]slot, clients*s.cold)
	tieredOut := make([]slot, clients*s.tiered)
	fleetOut := make([]slot, clients*s.fleet)
	cl := make([]*client, clients)
	for c := range cl {
		cl[c] = newClient()
		defer cl[c].close()
	}
	// record files one answered request: its latencies, and a failure
	// unless the served bytes equal the direct run's.
	record := func(out *slot, q *request, a answer, err error, phaseName string) {
		tiered := q.estimate != nil
		mu.Lock()
		defer mu.Unlock()
		p.ops++
		if err != nil {
			p.failed++
			return
		}
		wantFirst := q.full
		if tiered {
			wantFirst = q.estimate
		}
		if !bytes.Equal(a.firstBytes, wantFirst) || !bytes.Equal(a.lastBytes, q.full) {
			p.failed++
			return
		}
		if tiered {
			p.lat["first"] = append(p.lat["first"], a.first)
			p.lat["upgrade"] = append(p.lat["upgrade"], a.last)
		} else {
			p.lat[phaseName] = append(p.lat[phaseName], a.last)
		}
		out.first, out.last = a.firstBytes, a.lastBytes
		out.mips = float64(q.insts) / a.last / 1e6
		p.insts += q.insts
	}
	// traced wraps one request in a span on the client's own track and
	// splices the job's product-side spans (queue, engine, warmup,
	// measure, cache:store) underneath it.
	traced := func(c int, name, base string, body []byte) (answer, error) {
		sp := tr.Start(name).TID(c + 1)
		at := tr.Now()
		a, err := cl[c].ask(base, body)
		sp.End()
		if tr != nil && err == nil {
			if spans, terr := jobTrace(cl[c], base, a.id); terr == nil {
				tr.Splice(spans, at, c+1)
			}
		}
		return a, err
	}

	p.wall += phase(func(c int) {
		for i := 0; i < s.cold; i++ {
			q := b.cold[c][i]
			a, err := traced(c, "http:cold", single.ts.URL, q.body)
			record(&coldOut[c*s.cold+i], q, a, err, "cold")
		}
	})
	p.wall += phase(func(c int) {
		// Resubmissions of the specs just answered, round robin. The
		// reply is the finished job document; stop the clock before
		// decoding it.
		lat := make([]float64, 0, s.hits)
		failed := 0
		for i := 0; i < s.hits && s.cold > 0; i++ {
			q := b.cold[c][i%s.cold]
			sp := tr.Start("http:hit").TID(c + 1)
			t0 := time.Now()
			doc, err := cl[c].submit(single.ts.URL, q.body)
			d := seconds(time.Since(t0))
			sp.End()
			if err != nil || doc.Status != simd.StatusDone || !bytes.Equal(doc.Result, q.full) {
				failed++
				continue
			}
			lat = append(lat, d)
		}
		mu.Lock()
		p.ops += s.hits
		p.failed += failed
		p.lat["hit"] = append(p.lat["hit"], lat...)
		mu.Unlock()
	})
	p.wall += phase(func(c int) {
		for i := 0; i < s.tiered; i++ {
			q := b.tiered[c][i]
			a, err := traced(c, "http:tiered", single.ts.URL, q.body)
			record(&tieredOut[c*s.tiered+i], q, a, err, "tiered")
		}
	})
	p.wall += phase(func(c int) {
		for i := 0; i < s.fleet; i++ {
			q := b.cold[c][i]
			a, err := traced(c, "http:fleet", fl.ts.URL, q.body)
			record(&fleetOut[c*s.fleet+i], q, a, err, "fleet")
		}
	})

	for _, out := range [][]slot{coldOut, tieredOut, fleetOut} {
		for _, sl := range out {
			p.payloads = append(p.payloads, sl.first)
		}
	}
	for _, sl := range tieredOut {
		p.payloads = append(p.payloads, sl.last)
	}
	// Simulation speed as the service's caller sees it: a cold job's
	// measured instructions over its submit→done latency.
	for _, sl := range coldOut {
		p.mips = append(p.mips, sl.mips)
	}
	return p
}

// jobTrace fetches a job's recorded lifecycle spans.
func jobTrace(c *client, base, id string) ([]obs.SpanRec, error) {
	resp, err := c.http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace: %s", resp.Status)
	}
	var doc struct {
		Spans []obs.SpanRec `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Spans, err
}

func (b *serviceBench) report(r *run, ps []pass) {
	lat := map[string][]float64{}
	for _, p := range ps {
		for k, xs := range p.lat {
			lat[k] = append(lat[k], xs...)
		}
	}
	r.set("cold_p50_ms", 1e3*median(lat["cold"]))
	r.set("cold_p95_ms", 1e3*quantile(lat["cold"], 0.95))
	r.set("hit_p50_us", 1e6*median(lat["hit"]))
	r.set("simd.hit_p99_us", 1e6*quantile(lat["hit"], 0.99))
	r.set("first_answer_p50_ms", 1e3*median(lat["first"]))
	r.set("upgrade_p50_ms", 1e3*median(lat["upgrade"]))
	r.set("fleet_p50_ms", 1e3*median(lat["fleet"]))
	r.set("fleet.dispatch_overhead_ms", 1e3*(median(lat["fleet"])-median(lat["cold"])))
	r.printf("%-8s %8s %12s %12s %12s\n", "phase", "n", "p25 ms", "p50 ms", "p75 ms")
	for _, k := range []string{"cold", "hit", "first", "upgrade", "fleet"} {
		r.printf("%-8s %8d %12.4f %12.4f %12.4f\n", k, len(lat[k]), 1e3*quantile(lat[k], 0.25), 1e3*median(lat[k]), 1e3*quantile(lat[k], 0.75))
	}
}
