package simd

import (
	"encoding/json"
	"sync"

	"repro/internal/obs"
	"repro/internal/simrun"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating (or waiting on an identical
	// in-flight run).
	StatusRunning Status = "running"
	// StatusDone: finished; the result payload is available.
	StatusDone Status = "done"
	// StatusFailed: the run errored; Error says why.
	StatusFailed Status = "failed"
)

// terminal reports whether the status is final.
func (s Status) terminal() bool { return s == StatusDone || s == StatusFailed }

// JobDoc is the job representation served by the API. Result is the
// canonical report.JSON payload, so a done job's result is byte-identical
// to a direct simrun.Run + report.JSON of the same scenario. Tier names
// the fidelity tier that answered (simrun's lattice); under tiered
// serving a done job's Tier and Result are upgraded in place when the
// full-fidelity run lands — same job, same fingerprint, better answer.
type JobDoc struct {
	ID          string          `json:"id"`
	Status      Status          `json:"status"`
	Fingerprint string          `json:"fingerprint"`
	Spec        simrun.Spec     `json:"spec"`
	Cache       string          `json:"cache,omitempty"`
	Tier        string          `json:"tier,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Progress is the latest live heartbeat from the running simulation
	// (nil until the run has been going long enough to report). It is
	// presentation only — never part of Result's bytes.
	Progress *obs.Progress `json:"progress,omitempty"`
	// Worker/Attempt/Dispatch track fleet routing when the server runs
	// in coordinator mode: the worker currently holding the job's lease
	// ("local" for the degraded in-process run), the 1-based dispatch
	// attempt, and why that dispatch happened ("dispatch", "retry",
	// "reassign", "local"). Empty on single-node servers. Presentation
	// only — routing never changes Result's bytes.
	Worker   string `json:"worker,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Dispatch string `json:"dispatch,omitempty"`
}

// Job is one submitted scenario making its way through the queue. Jobs
// are content-addressed: the ID derives from the scenario fingerprint, so
// identical submissions share one job.
type Job struct {
	id          string
	fingerprint string
	spec        simrun.Spec
	scenario    *simrun.Scenario
	// tracer records the job's lifecycle spans (queue wait, engine runs,
	// cache store, upgrade) into a bounded ring served at
	// GET /v1/jobs/{id}/trace.
	tracer *obs.Tracer

	mu      sync.Mutex
	status  Status
	source  simrun.CacheSource
	tier    simrun.Tier
	errMsg  string
	payload []byte
	// qspan is the open queue-wait span, ended when a worker picks the
	// job up.
	qspan    *obs.Span
	progress *obs.Progress
	worker   string
	attempt  int
	dispatch string
	subs     []chan JobDoc
	done     chan struct{}
	// upgradePending marks a job answered below full fidelity whose
	// background upgrade is still in flight: the terminal transition
	// keeps subscriptions open so the upgrade is delivered as one final
	// event before they close.
	upgradePending bool
}

func newJob(id, fingerprint string, spec simrun.Spec, sc *simrun.Scenario) *Job {
	j := &Job{
		id:          id,
		fingerprint: fingerprint,
		spec:        spec,
		scenario:    sc,
		tracer:      obs.NewTracer(0),
		status:      StatusQueued,
		done:        make(chan struct{}),
	}
	j.qspan = j.tracer.Start("queue")
	// The observer rides the scenario (and every ForEngine copy), so the
	// dispatcher's engine spans and the driver's heartbeats land on this
	// job. Observability never enters the fingerprint, so the content
	// address computed above is unaffected.
	if sc != nil {
		sc.SetObserver(&obs.Observer{Tracer: j.tracer, Progress: j.setProgress})
	}
	return j
}

// Tracer is the job's span ring (the /v1/jobs/{id}/trace payload).
func (j *Job) Tracer() *obs.Tracer { return j.tracer }

// pickup ends the queue-wait span; called when a worker takes the job.
func (j *Job) pickup() {
	j.mu.Lock()
	sp := j.qspan
	j.qspan = nil
	j.mu.Unlock()
	sp.End()
}

// setProgress records a heartbeat and notifies subscribers — but only
// when a subscription has spare buffer beyond what the remaining status
// transitions need: progress is best-effort decoration and must never
// crowd out a status event.
func (j *Job) setProgress(p obs.Progress) {
	j.mu.Lock()
	j.progress = &p
	doc := j.docLocked()
	subs := append([]chan JobDoc(nil), j.subs...)
	j.mu.Unlock()

	for _, ch := range subs {
		if cap(ch)-len(ch) > maxStatusEvents {
			select {
			case ch <- doc:
			default:
			}
		}
	}
}

// setDispatch records a fleet routing event (which worker holds the
// job, which attempt, and why) and notifies subscribers under the same
// headroom rule as progress: routing is best-effort decoration that must
// never crowd out a status event.
func (j *Job) setDispatch(worker string, attempt int, event string) {
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.worker = worker
	j.attempt = attempt
	j.dispatch = event
	doc := j.docLocked()
	subs := append([]chan JobDoc(nil), j.subs...)
	j.mu.Unlock()

	for _, ch := range subs {
		if cap(ch)-len(ch) > maxStatusEvents {
			select {
			case ch <- doc:
			default:
			}
		}
	}
}

// maxStatusEvents is the most status transitions a subscriber can still
// have in flight after subscribing (running, done, upgrade settle);
// progress sends always leave this much headroom.
const maxStatusEvents = 3

// Doc snapshots the job for serving.
func (j *Job) Doc() JobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.docLocked()
}

func (j *Job) docLocked() JobDoc {
	return JobDoc{
		ID:          j.id,
		Status:      j.status,
		Fingerprint: j.fingerprint,
		Spec:        j.spec,
		Cache:       string(j.source),
		Tier:        string(j.tier),
		Error:       j.errMsg,
		Result:      j.payload,
		Progress:    j.progress,
		Worker:      j.worker,
		Attempt:     j.attempt,
		Dispatch:    j.dispatch,
	}
}

// Done unblocks when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setStatus transitions the job and notifies subscribers. Terminal
// transitions close the done channel and every subscription — unless an
// upgrade is pending, in which case subscriptions stay open for the one
// further event settle delivers.
func (j *Job) setStatus(status Status, source simrun.CacheSource, tier simrun.Tier, payload []byte, errMsg string) {
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.source = source
	j.tier = tier
	j.payload = payload
	j.errMsg = errMsg
	doc := j.docLocked()
	subs := j.subs
	closing := status.terminal() && !j.upgradePending
	if closing {
		j.subs = nil
	}
	j.mu.Unlock()

	for _, ch := range subs {
		// Subscriptions are buffered beyond the number of possible
		// transitions, so sends never block; the guard is belt and
		// braces against a misbehaving subscriber.
		select {
		case ch <- doc:
		default:
		}
		if closing {
			close(ch)
		}
	}
	if status.terminal() {
		close(j.done)
	}
}

// markUpgradePending flags the job for a background upgrade; call before
// the terminal setStatus so no subscription window is lost.
func (j *Job) markUpgradePending() {
	j.mu.Lock()
	j.upgradePending = true
	j.mu.Unlock()
}

// settle completes a pending upgrade: a non-nil payload replaces the done
// job's answer in place (same job, same fingerprint, higher tier); a nil
// payload means the upgrade failed and the estimate stands. Either way
// every remaining subscription receives one final document and closes.
func (j *Job) settle(source simrun.CacheSource, tier simrun.Tier, payload []byte) {
	j.mu.Lock()
	if !j.upgradePending {
		j.mu.Unlock()
		return
	}
	j.upgradePending = false
	if payload != nil && j.status == StatusDone {
		j.source = source
		j.tier = tier
		j.payload = payload
	}
	doc := j.docLocked()
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()

	for _, ch := range subs {
		select {
		case ch <- doc:
		default:
		}
		close(ch)
	}
}

// Subscribe returns a channel that immediately yields the current state
// and then every transition; it is closed after the terminal state is
// delivered. A job has at most three further transitions, so the buffer
// makes delivery non-blocking — which is also why the initial send can
// (and must) happen under the lock: once j.subs holds the channel, a
// concurrent terminal setStatus may send to and close it, so the
// current-state send has to be ordered before registration is visible.
func (j *Job) Subscribe() <-chan JobDoc {
	ch := make(chan JobDoc, 8)
	j.mu.Lock()
	ch <- j.docLocked()
	if j.status.terminal() && !j.upgradePending {
		close(ch)
	} else {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	return ch
}
