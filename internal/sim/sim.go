// Package sim defines the small contracts between core timing models (the
// detailed out-of-order baseline and the interval model) and the multi-core
// driver: the per-cycle stepping interface and the synchronization
// arbitration interface. Keeping these here lets the two core models stay
// independent of the driver and of each other.
package sim

import "repro/internal/isa"

// Core is one simulated core as seen by the multi-core driver. The driver
// advances global time cycle by cycle and calls Step once per cycle on
// every core that has not finished (see TimeSkipper for the cycles it may
// leave out).
type Core interface {
	// Step simulates global cycle now for this core. Implementations
	// that are ahead of global time (interval simulation's per-core
	// simulated time) may do nothing.
	Step(now int64)
	// Done reports whether the core's thread has finished: stream
	// exhausted and all buffered work drained.
	Done() bool
	// Retired returns the number of committed instructions.
	Retired() uint64
	// FinishTime returns the core-local simulated time at which the
	// thread finished (valid once Done).
	FinishTime() int64
}

// SyncDecision is the driver's answer to a synchronization request.
type SyncDecision struct {
	// Proceed is true when the thread may execute the synchronization
	// instruction now.
	Proceed bool
	// Latency is the execution cost of the operation when proceeding
	// (lock transfer, barrier release broadcast).
	Latency int64
}

// Syncer arbitrates barriers and locks between threads. Core models call
// Sync each cycle a synchronization instruction is ready to execute and
// stall while Proceed is false; the call is idempotent per (core, seq) —
// repeated polling must not double-register an arrival.
type Syncer interface {
	Sync(core int, in *isa.Inst, now int64) SyncDecision
}

// TimeSkipper is an optional interface for core models whose per-core
// simulated time can run ahead of global time (the interval and one-IPC
// models). NextActive(now) returns the earliest global cycle, not before
// now, at which the core will do work: Step is a no-op at every cycle
// before it. The answer is a function of the core's own state as its last
// Step left it — nothing another core or the coordinator does may move it,
// so a core waiting on a barrier or a lock answers the next cycle and
// polls. The driver asks once, right after a core's Step, and holds the
// answer until that core's next Step: it neither steps nor asks the core
// before then, and advances global time straight to the minimum over all
// live cores, which is exactly equivalent to stepping through the
// intervening cycles (no core would have been simulated in them).
type TimeSkipper interface {
	NextActive(now int64) int64
}

// NullSyncer lets every synchronization instruction proceed immediately;
// used for single-threaded runs.
type NullSyncer struct{}

// Sync implements Syncer.
func (NullSyncer) Sync(int, *isa.Inst, int64) SyncDecision {
	return SyncDecision{Proceed: true, Latency: 1}
}
