// Package engine registers the estimator engines of the fidelity-tier
// lattice (statistical < sampled < interval < detailed) with the simrun
// engine registry:
//
//   - "statistical" (tier statistical): profiles a bounded window of the
//     real instruction stream (internal/statsim), generates a short
//     synthetic clone that reproduces the profiled mix, dependences,
//     branch behaviour and cache locality, times the clone under the
//     scenario's own core model, and extrapolates to the full budget.
//   - "simpoint" (tier sampled): records a bounded prefix of the stream,
//     clusters its intervals by code signature (internal/sampling,
//     seeded k-means++) and times one representative per phase, weighted
//     by cluster size.
//
// Importing this package (for side effects) is what turns a binary into
// a tiered-fidelity front end: the simd service answers fresh queries
// from the cheapest supporting engine while the full run proceeds in the
// background, and cmd/sweep's adaptive mode spends the full-fidelity
// budget where the statistical tier found the most interest. Both
// engines are deterministic: same scenario, same seed — same answer.
package engine

import (
	"errors"

	"repro/internal/simrun"
)

// singleProgram rejects scenarios the estimator engines cannot answer:
// both profile one single-threaded instruction stream.
func singleProgram(s *simrun.Scenario) error {
	p := s.Profile()
	if p == nil {
		return errors.New("needs a named single-benchmark workload (explicit streams and mixes have no profile to estimate from)")
	}
	if p.MultiThreaded() {
		return errors.New("single-threaded profiles only (multi-threaded clones are out of scope, as in the statistical-simulation literature)")
	}
	if s.Threads() != 1 {
		return errors.New("single-core scenarios only")
	}
	return nil
}

func init() {
	simrun.RegisterEngine(statisticalEngine())
	simrun.RegisterEngine(simpointEngine())
}
