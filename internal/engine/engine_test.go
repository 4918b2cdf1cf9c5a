package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/simrun"
)

func mustScenario(t *testing.T, name, eng string, opts ...simrun.Option) *simrun.Scenario {
	t.Helper()
	sc, err := simrun.New(name, append(opts, simrun.Engine(eng))...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestStatisticalDeterministic: the estimator is a pure function of the
// scenario — same scenario, same answer, run to run.
func TestStatisticalDeterministic(t *testing.T) {
	sc := mustScenario(t, "gcc", "statistical", simrun.Insts(30_000), simrun.Warmup(10_000), simrun.Seed(42))
	a, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalRetired != b.TotalRetired {
		t.Fatalf("statistical runs diverge: %d/%d cycles, %d/%d retired",
			a.Cycles, b.Cycles, a.TotalRetired, b.TotalRetired)
	}
}

// TestStatisticalExtrapolates: the answer covers the scenario's whole
// budget even though only a bounded clone was simulated, and it is
// tagged with the statistical tier.
func TestStatisticalExtrapolates(t *testing.T) {
	const budget = 2_000_000
	sc := mustScenario(t, "gcc", "statistical", simrun.Insts(budget), simrun.Warmup(100_000), simrun.Seed(42))
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRetired != budget {
		t.Errorf("retired %d, want the full %d budget", res.TotalRetired, budget)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles %d", res.Cycles)
	}
	if res.Engine != "statistical" || res.Tier != simrun.TierStatistical {
		t.Errorf("tagged %q/%q", res.Engine, res.Tier)
	}
	if len(res.Cores) != 1 || res.Cores[0].IPC <= 0 {
		t.Errorf("per-core synthesis wrong: %+v", res.Cores)
	}
}

func TestSimPointTagsSampledTier(t *testing.T) {
	sc := mustScenario(t, "gcc", "simpoint", simrun.Insts(40_000), simrun.Warmup(10_000), simrun.Seed(42))
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "simpoint" || res.Tier != simrun.TierSampled {
		t.Errorf("tagged %q/%q", res.Engine, res.Tier)
	}
	if res.TotalRetired != 40_000 || res.Cycles <= 0 {
		t.Errorf("retired %d cycles %d", res.TotalRetired, res.Cycles)
	}
}

// TestSimPointGolden pins the engine's exact answers, recorded at 3c4b015
// when each representative was warmed and stepped by internal/sampling's own
// loops; each is one multicore.Run now and must answer the same.
func TestSimPointGolden(t *testing.T) {
	for _, tc := range []struct {
		opts   []simrun.Option
		cycles int64
	}{
		{[]simrun.Option{simrun.Insts(40_000), simrun.Warmup(10_000), simrun.Seed(42), simrun.Model("interval")}, 75_817},
		{[]simrun.Option{simrun.Insts(40_000), simrun.Warmup(10_000), simrun.Seed(42), simrun.Model("detailed")}, 59_430},
		{[]simrun.Option{simrun.Insts(300_000), simrun.Warmup(100_000), simrun.Seed(7)}, 634_395},
	} {
		sc := mustScenario(t, "gcc", "simpoint", tc.opts...)
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != tc.cycles || res.TotalRetired != uint64(sc.InstBudget()) {
			t.Errorf("%s %d insts: %d cycles, %d retired; recorded %d cycles, %d retired",
				sc.ModelName(), sc.InstBudget(), res.Cycles, res.TotalRetired, tc.cycles, sc.InstBudget())
		}
	}
}

// TestEstimatorsRejectMultiProgram: both estimators are single-program;
// the rejection happens at scenario build time with the reason.
func TestEstimatorsRejectMultiProgram(t *testing.T) {
	for _, eng := range []string{"statistical", "simpoint"} {
		_, err := simrun.New("", simrun.Mix("gcc", "mcf"), simrun.Engine(eng))
		if err == nil {
			t.Errorf("%s accepted a multi-program mix", eng)
			continue
		}
		if !strings.Contains(err.Error(), eng) {
			t.Errorf("%s rejection does not name the engine: %v", eng, err)
		}
	}
}

// TestCheapestEngineSelection: with the estimators registered, a
// single-program scenario's cheapest engine is the statistical one, and
// a multi-program scenario falls back to full.
func TestCheapestEngineSelection(t *testing.T) {
	single, err := simrun.New("gcc", simrun.Insts(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := simrun.CheapestEngineFor(single).Name; got != "statistical" {
		t.Errorf("cheapest for single-program = %q", got)
	}
	mix, err := simrun.New("", simrun.Mix("gcc", "mcf"), simrun.Insts(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := simrun.CheapestEngineFor(mix).Name; got != simrun.DefaultEngine {
		t.Errorf("cheapest for mix = %q", got)
	}
}

// TestStatisticalTierWithinBand: the statistical engine — the cheapest
// tier the simd service answers from — is a culling estimate, not a
// measurement, so the band is loose; the check exists to catch the
// estimator drifting into nonsense. CPI against the full interval run of
// the same scenario stays within 40 % on a compute-bound, a memory-bound
// and a floating-point profile.
func TestStatisticalTierWithinBand(t *testing.T) {
	const band = 0.4
	cpi := func(res simrun.Result) float64 {
		return float64(res.Cycles) / float64(res.TotalRetired)
	}
	for _, name := range []string{"gcc", "mcf", "swim"} {
		opts := []simrun.Option{simrun.Insts(100_000), simrun.Warmup(50_000), simrun.Seed(42)}
		full, err := mustScenario(t, name, simrun.DefaultEngine, opts...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		est, err := mustScenario(t, name, "statistical", opts...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, got := cpi(full), cpi(est)
		t.Logf("%s: interval CPI %.3f, statistical CPI %.3f (err %.0f%%)", name, want, got, 100*math.Abs(got-want)/want)
		if math.Abs(got-want) > band*want {
			t.Errorf("%s: statistical CPI %.3f is more than %.0f%% off the interval CPI %.3f", name, got, 100*band, want)
		}
	}
}
