package simrun

import (
	"sync"

	"repro/internal/obs"
)

// The facade's process-wide metrics, registered into obs.Default() on
// first use so a process that never runs a scenario exposes none of
// them. Per-engine instruments are resolved per run through the metrics
// registry's idempotent lookup (a mutexed map access, negligible next to
// a simulation).
var (
	obsOnce           sync.Once
	mCacheQuarantined *obs.Counter
	mEnginePanics     *obs.Counter
	mPipelined        *obs.Counter
)

func obsMetrics() {
	obsOnce.Do(func() {
		r := obs.Default()
		mCacheQuarantined = r.Counter("simrun_cache_quarantined_total",
			"Persisted cache entries that failed the integrity check and were renamed aside.")
		mEnginePanics = r.Counter("simrun_engine_panics_total",
			"Engine runs that panicked and were isolated to a per-run error.")
		mPipelined = r.Counter("simrun_runs_pipelined_total",
			"Full-engine runs that found a host thread idle and generated their streams on it.")
	})
}

// engineWall resolves the wall-clock histogram for one engine;
// its _count is the number of runs the engine answered.
func engineWall(engine string) *obs.Histogram {
	obsMetrics()
	return obs.Default().Histogram("simrun_engine_wall_seconds",
		"Host wall-clock seconds per engine run.", nil, obs.Label{Key: "engine", Value: engine})
}
