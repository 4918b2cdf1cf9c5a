// Package engine is the statistical estimator, the cheapest tier of the
// fidelity lattice (statistical < interval < detailed). It profiles a
// bounded window of the real instruction stream (internal/statsim),
// generates a short synthetic clone that reproduces the profiled mix,
// dependences, branch behaviour and cache locality, times the clone under
// the run's own core model and machine on the multicore driver, and
// extrapolates to the full budget.
//
// Package simrun selects it as its "statistical" engine: a tiered simd
// service answers fresh queries from it while the full run proceeds in the
// background, and a spec that pins the engine runs it alone; no command
// spends it on its own points. The estimator reads only the profile, seed,
// warm-up, budget, machine and model of the run it stands in for, and it
// is deterministic: same inputs, same answer.
package engine

import (
	"errors"

	"repro/internal/workload"
)

// Supports reports whether the estimator can answer a run of profile p on
// threads cores: nil when it can, the reason otherwise. It profiles one
// single-threaded instruction stream, so p is nil for a run of explicit
// streams or a mix.
func Supports(p *workload.Profile, threads int) error {
	if p == nil {
		return errors.New("needs a named single-benchmark workload (explicit streams and mixes have no profile to estimate from)")
	}
	if p.MultiThreaded() {
		return errors.New("single-threaded profiles only (multi-threaded clones are out of scope, as in the statistical-simulation literature)")
	}
	if threads != 1 {
		return errors.New("single-core scenarios only")
	}
	return nil
}
