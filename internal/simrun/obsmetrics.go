package simrun

import (
	"sync"

	"repro/internal/obs"
)

// The facade's process-wide metrics, registered into obs.Default() on
// first use so a process that never runs a scenario exposes none of
// them. Per-engine instruments are resolved per run through the
// registry's idempotent lookup (a mutexed map access, negligible next
// to a simulation).
var (
	obsOnce           sync.Once
	mBatchPending     *obs.Gauge
	mBatchRunning     *obs.Gauge
	mCacheUpgrades    *obs.Counter
	mCacheQuarantined *obs.Counter
	mEnginePanics     *obs.Counter
	mPipelined        *obs.Counter
)

func obsMetrics() {
	obsOnce.Do(func() {
		r := obs.Default()
		mBatchPending = r.Gauge("simrun_batch_pending",
			"Batch scenarios waiting for a worker.")
		mBatchRunning = r.Gauge("simrun_batch_running",
			"Batch scenarios currently simulating.")
		mCacheUpgrades = r.Counter("simrun_cache_tier_upgrades_total",
			"Result-cache entries upgraded in place to a higher fidelity tier.")
		mCacheQuarantined = r.Counter("simrun_cache_quarantined_total",
			"Persisted cache entries that failed the integrity check and were renamed aside.")
		mEnginePanics = r.Counter("simrun_engine_panics_total",
			"Engine runs that panicked and were isolated to a per-run error.")
		mPipelined = r.Counter("simrun_runs_pipelined_total",
			"Full-engine runs that found a host thread idle and generated their streams on it.")
	})
}

// engineMetrics resolves the dispatch counter and wall-clock histogram
// for one registered engine.
func engineMetrics(engine string) (*obs.Counter, *obs.Histogram) {
	obsMetrics()
	r := obs.Default()
	lbl := obs.Label{Key: "engine", Value: engine}
	runs := r.Counter("simrun_engine_runs_total",
		"Scenario runs dispatched, by answering engine.", lbl)
	wall := r.Histogram("simrun_engine_wall_seconds",
		"Host wall-clock seconds per engine run.", nil, lbl)
	return runs, wall
}
