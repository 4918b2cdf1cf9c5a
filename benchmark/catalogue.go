package main

// The catalogue is the benchmark's contract: the workload and metric names
// BENCHMARK.json declares and every result line carries. benchmark_test.go
// checks the two against each other, so a name added here without its
// BENCHMARK.json entry (or the reverse) fails tier-1.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"spec-interval", "the paper's primary use and steady-state hot path: 1-core SPEC runs under the interval model, where the generator, core and memhier do nearly all the work"},
	{"spec-detailed", "same profiles under the detailed model: ooo does most of the work, so it bypasses generator and interval-core changes while sharing memhier, cache and branch"},
	{"multicore-shared", "multi-program and multi-threaded runs on 4-8 cores: only here do the multicore driver, shared L2, coherence, noc, DRAM and the sync coordinator carry load"},
	{"sweep-batch", "a 72-point design-space cull through LoadSpecs and a 2-worker Batch: construction, functional warmup and scheduling dominate, and two host threads contend"},
	{"service-mix", "closed-loop clients on simd over HTTP (cold, cache hit, tiered, fleet): simd, spec/fingerprint/cache, report, engine and fleet work while the core is a fixed cost"},
}

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics every workload reports with tracing off. The
// driver requires each workload to report each of them and none to be zero,
// so only the measures that mean the same thing on all five workloads are
// here; the workload-specific end-to-end measures of the issue (accuracy,
// service latencies, failed_frac) are in perLayer under their issue names.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_mips", "Minst/s", "higher", 0.15},
	{"pass_wall_s", "s", "lower", 0.15},
	{"scenarios_per_s", "1/s", "higher", 0.15},
}

// perLayer lists the metrics of the traced run. The prefix before the dot is
// the layer (a package under internal/); unprefixed names are the issue's
// workload-specific end-to-end measures, taken from the untraced half of
// the traced run. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"ipc_err_avg_pct", "%", "lower", 0},
	{"ipc_err_max_pct", "%", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
	{"cold_p50_ms", "ms", "lower", 0},
	{"cold_p95_ms", "ms", "lower", 0},
	{"hit_p50_us", "us", "lower", 0},
	{"first_answer_p50_ms", "ms", "lower", 0},
	{"upgrade_p50_ms", "ms", "lower", 0},
	{"fleet_p50_ms", "ms", "lower", 0},

	{"workload.gen_ns_per_inst", "ns/inst", "lower", 0},
	{"workload.insts_generated", "count", "lower", 0},
	{"workload.skipto_us", "us", "lower", 0},
	{"trace.replay_ns_per_inst", "ns/inst", "lower", 0},
	{"trace.handoff_ns_per_inst", "ns/inst", "lower", 0},
	{"core.self_ns_per_inst", "ns/inst", "lower", 0},
	{"core.miss_events_per_kinst", "1/kinst", "lower", 0},
	{"core.speedup_vs_ooo", "ratio", "higher", 0},
	{"ooo.self_ns_per_inst", "ns/inst", "lower", 0},
	{"oneipc.self_ns_per_inst", "ns/inst", "lower", 0},
	{"branch.predict_ns_per_inst", "ns/inst", "lower", 0},
	{"branch.lookups", "count", "lower", 0},
	{"branch.mispredicts", "count", "lower", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"cache.tlb_access_ns", "ns", "lower", 0},
	{"memhier.ns_per_inst", "ns/inst", "lower", 0},
	{"memhier.data_accesses", "count", "lower", 0},
	{"memhier.l1d_misses", "count", "lower", 0},
	{"memhier.l2_misses", "count", "lower", 0},
	{"memhier.shared_delta_ns_per_inst", "ns/inst", "lower", 0},
	{"coherence.invalidations", "count", "lower", 0},
	{"coherence.interventions", "count", "lower", 0},
	{"noc.transactions", "count", "lower", 0},
	{"noc.stall_cycles", "cycles", "lower", 0},
	{"memory.dram_requests", "count", "lower", 0},
	{"memory.stall_cycles", "cycles", "lower", 0},
	{"multicore.warmup_ns_per_inst", "ns/inst", "lower", 0},
	{"multicore.residual_ns_per_inst", "ns/inst", "lower", 0},
	{"parsim.par_over_seq", "ratio", "higher", 0},
	{"parsim.fallbacks", "count", "lower", 0},
	{"simrun.load_specs_us_per_spec", "us", "lower", 0},
	{"simrun.new_us", "us", "lower", 0},
	{"simrun.fingerprint_us", "us", "lower", 0},
	{"simrun.cache_lookup_ns", "ns", "lower", 0},
	{"simrun.cache_put_us", "us", "lower", 0},
	{"simrun.cache_runs", "count", "lower", 0},
	{"simrun.batch_efficiency", "ratio", "higher", 0},
	{"report.json_us", "us", "lower", 0},
	{"report.json_bytes", "B", "lower", 0},
	{"engine.statistical_ms", "ms", "lower", 0},
	{"engine.simpoint_ms", "ms", "lower", 0},
	{"engine.statistical_err_pct", "%", "lower", 0},
	{"engine.simpoint_err_pct", "%", "lower", 0},
	{"simd.submit_direct_us", "us", "lower", 0},
	{"simd.http_overhead_us", "us", "lower", 0},
	{"simd.queue_wait_ms", "ms", "lower", 0},
	{"simd.hit_p99_us", "us", "lower", 0},
	{"simd.deduped", "count", "higher", 0},
	{"simd.rejected", "count", "lower", 0},
	{"fleet.dispatch_overhead_ms", "ms", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.local_fallbacks", "count", "lower", 0},
	{"obs.traced_overhead_pct", "%", "lower", 0},
	{"obs.disabled_span_ns", "ns", "lower", 0},
	{"host.calib_ns_per_op", "ns", "lower", 0},
	{"host.calib_spread_pct", "%", "lower", 0},
	{"host.peak_rss_mb", "MiB", "lower", 0},
	{"host.allocs_per_kinst", "1/kinst", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
}

// metricDefs returns the metrics a result line carries: the end-to-end ones,
// or the per-layer ones of a traced run.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
