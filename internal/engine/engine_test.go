package engine

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/workload"
)

// estimate runs the estimator for a gcc run of budget instructions after
// warmup on the Table 1 single-core machine under the interval model.
func estimate(t *testing.T, warmup, budget int) multicore.Result {
	t.Helper()
	res, err := Statistical(context.Background(), workload.SPECByName("gcc"), 42, warmup, budget, config.Default(1), multicore.Interval)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStatisticalDeterministic: the estimator is a pure function of its
// inputs — same run, same answer, run to run.
func TestStatisticalDeterministic(t *testing.T) {
	a, b := estimate(t, 10_000, 30_000), estimate(t, 10_000, 30_000)
	if a.Cycles != b.Cycles || a.TotalRetired != b.TotalRetired {
		t.Fatalf("statistical runs diverge: %d/%d cycles, %d/%d retired",
			a.Cycles, b.Cycles, a.TotalRetired, b.TotalRetired)
	}
}

// TestStatisticalExtrapolates: the answer covers the run's whole budget
// even though only a bounded clone was simulated.
func TestStatisticalExtrapolates(t *testing.T) {
	const budget = 2_000_000
	res := estimate(t, 100_000, budget)
	if res.TotalRetired != budget {
		t.Errorf("retired %d, want the full %d budget", res.TotalRetired, budget)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles %d", res.Cycles)
	}
	if len(res.Cores) != 1 || res.Cores[0].IPC <= 0 {
		t.Errorf("per-core synthesis wrong: %+v", res.Cores)
	}
}

// TestProfileWindowIsWhole: the stratified profile counts the whole window
// whatever the warm-up. A warm-up shorter than the profiler's run-in cuts
// the run-in, and the profiler must warm over the cut run-in only: warming
// over the full one ate the first strata.
func TestProfileWindowIsWhole(t *testing.T) {
	for _, warmup := range []int{0, 50_000, 150_000, 200_000, 300_000} {
		if got := profile(workload.SPECByName("gcc"), 42, warmup, 2_000_000).Total; got != statProfileWindow {
			t.Errorf("warm-up %d: profiled %d instructions, want the %d window", warmup, got, statProfileWindow)
		}
	}
}
