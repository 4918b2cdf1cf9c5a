package fleet

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// workerStats accumulates per-worker dispatch accounting for the
// status surface. Entries survive worker loss, so a crashed worker's
// dispatch history stays readable while operators debug it.
type workerStats struct {
	inflight int
	ok       uint64
	fail     uint64
	// attempts histograms dispatches by attempt number (1-based): a
	// fleet where attempts[2] grows is retrying, one where only
	// attempts[1] grows is healthy.
	attempts map[int]uint64
}

// tidFor returns the worker's stable trace row, assigning the next one
// (1-based; row 0 is the coordinator) on first sight.
func (c *Coordinator) tidFor(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	tid, ok := c.tids[id]
	if !ok {
		c.nextTID++
		tid = c.nextTID
		c.tids[id] = tid
	}
	return tid
}

func (c *Coordinator) statsLocked(id string) *workerStats {
	st, ok := c.stats[id]
	if !ok {
		st = &workerStats{attempts: map[int]uint64{}}
		c.stats[id] = st
	}
	return st
}

func (c *Coordinator) noteDispatch(id string, attempt int) {
	c.mu.Lock()
	st := c.statsLocked(id)
	st.inflight++
	st.attempts[attempt]++
	c.mu.Unlock()
}

func (c *Coordinator) noteDone(id string, ok bool) {
	c.mu.Lock()
	st := c.statsLocked(id)
	st.inflight--
	if ok {
		st.ok++
	} else {
		st.fail++
	}
	c.mu.Unlock()
}

// WorkerStatus is one worker's row in the fleet status snapshot.
type WorkerStatus struct {
	ID string `json:"id"`
	// Live says the worker's lease clock is current (a heartbeat landed
	// within the TTL).
	Live bool `json:"live"`
	// LeaseAgeMillis is the time since the last heartbeat (-1 when the
	// worker is no longer registered).
	LeaseAgeMillis int64 `json:"lease_age_ms"`
	// TraceRow is the worker's track on stitched job traces (0 = never
	// dispatched to).
	TraceRow int `json:"trace_row,omitempty"`
	// InFlight counts dispatch attempts currently on the wire to this
	// worker.
	InFlight int `json:"in_flight"`
	// OK / Failed count finished dispatch attempts by outcome.
	OK     uint64 `json:"ok"`
	Failed uint64 `json:"failed"`
	// Attempts histograms dispatches by attempt number (1-based).
	Attempts map[int]uint64 `json:"attempts,omitempty"`
}

// Status is the live fleet snapshot served at /fleet/v1/status.
type Status struct {
	Workers     []WorkerStatus `json:"workers"`
	LiveWorkers int            `json:"live_workers"`
	// Dispatch latency quantiles, milliseconds, over all attempts.
	DispatchP50Millis float64 `json:"dispatch_p50_ms"`
	DispatchP95Millis float64 `json:"dispatch_p95_ms"`
	// Lifetime coordinator totals, mirroring the fleet_* counters;
	// Dispatches counts finished attempts (fleet_dispatch_seconds_count).
	Dispatches           uint64 `json:"dispatches"`
	Retries              uint64 `json:"retries"`
	Reassignments        uint64 `json:"reassignments"`
	LeaseExpiries        uint64 `json:"lease_expiries"`
	Completions          uint64 `json:"completions"`
	DuplicateCompletions uint64 `json:"duplicate_completions"`
	LocalRuns            uint64 `json:"local_runs"`
	CorruptDeliveries    uint64 `json:"corrupt_results"`
}

// Status assembles the live fleet snapshot: per-worker lease and
// dispatch accounting plus coordinator-wide totals and dispatch
// latency quantiles.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	ids := map[string]bool{}
	for id := range c.workers {
		ids[id] = true
	}
	for id := range c.stats {
		ids[id] = true
	}
	st := Status{Workers: make([]WorkerStatus, 0, len(ids))}
	for id := range ids {
		ws := WorkerStatus{ID: id, LeaseAgeMillis: -1, TraceRow: c.tids[id]}
		if reg, ok := c.workers[id]; ok {
			age := time.Since(reg.lastBeat)
			ws.LeaseAgeMillis = age.Milliseconds()
			ws.Live = age <= c.leaseTTL
		}
		if s, ok := c.stats[id]; ok {
			ws.InFlight = s.inflight
			ws.OK, ws.Failed = s.ok, s.fail
			if len(s.attempts) > 0 {
				ws.Attempts = make(map[int]uint64, len(s.attempts))
				for k, v := range s.attempts {
					ws.Attempts[k] = v
				}
			}
		}
		if ws.Live {
			st.LiveWorkers++
		}
		st.Workers = append(st.Workers, ws)
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })

	st.DispatchP50Millis = c.hDispatch.Quantile(0.50) * 1e3
	st.DispatchP95Millis = c.hDispatch.Quantile(0.95) * 1e3
	st.Dispatches = c.hDispatch.Count()
	st.Retries = c.mRetries.Value()
	st.Reassignments = c.mReassigns.Value()
	st.LeaseExpiries = c.mLeaseExpiry.Value()
	st.Completions = c.mCompletions.Value()
	st.DuplicateCompletions = c.mDupComplete.Value()
	st.LocalRuns = c.mLocalRuns.Value()
	st.CorruptDeliveries = c.mCorrupt.Value()
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Status())
}
