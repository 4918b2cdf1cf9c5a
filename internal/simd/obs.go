package simd

import (
	"repro/internal/obs"
)

// registerMetrics bridges the server's own atomics and the result
// cache's counters into the per-Server registry. The names and help
// strings are the service's stable exposition contract (golden-tested);
// the registry is per-Server so tests can build many Servers without
// colliding in a process-wide namespace. Process-wide metrics (engine
// runs, batch occupancy) are merged in at serve time from obs.Default().
func (s *Server) registerMetrics() {
	r := s.reg
	r.CounterFunc("simd_jobs_submitted_total",
		"Jobs accepted (new scenarios).", s.submitted.Load)
	r.CounterFunc("simd_jobs_deduplicated_total",
		"Submissions joined onto an existing job.", s.deduped.Load)
	r.CounterFunc("simd_jobs_rejected_total",
		"Submissions rejected because the queue was full.", s.rejected.Load)
	r.CounterFunc("simd_jobs_completed_total",
		"Jobs finished successfully.", s.completed.Load)
	r.CounterFunc("simd_jobs_failed_total",
		"Jobs that errored.", s.failed.Load)
	r.GaugeFunc("simd_queue_depth",
		"Jobs waiting for a worker.", func() float64 { return float64(s.QueueLen()) })
	r.CounterFunc("simd_cache_runs_total",
		"Simulator executions (cache misses).", func() uint64 { return s.CacheStats().Runs })
	r.CounterFunc("simd_cache_hits_total",
		"In-memory result-cache hits.", func() uint64 { return s.CacheStats().Hits })
	r.CounterFunc("simd_cache_disk_hits_total",
		"Persistent-store hits.", func() uint64 { return s.CacheStats().DiskHits })
	r.CounterFunc("simd_cache_flight_waits_total",
		"Callers that piggybacked on an in-flight run.", func() uint64 { return s.CacheStats().Waits })
	r.CounterFunc("simd_cache_upgrades_total",
		"Cache entries upgraded in place to a higher tier.", func() uint64 { return s.CacheStats().Upgrades })
	r.CounterFunc("simd_tier_fast_answers_total",
		"Jobs answered below full fidelity.", s.fast.Load)
	r.CounterFunc("simd_tier_upgrades_total",
		"Background full-fidelity upgrades that landed.", s.upgraded.Load)
}

// Registry exposes the server's metric registry (the /metrics payload is
// this registry merged with obs.Default()).
func (s *Server) Registry() *obs.Registry { return s.reg }
