package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/simrun"
)

func mustScenario(t *testing.T, eng string, sp simrun.Spec) *simrun.Scenario {
	t.Helper()
	sp.Engine = eng
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestStatisticalDeterministic: the estimator is a pure function of the
// scenario — same scenario, same answer, run to run.
func TestStatisticalDeterministic(t *testing.T) {
	sc := mustScenario(t, "statistical", simrun.Spec{Bench: "gcc", Insts: 30_000, Warmup: 10_000})
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
	sc := mustScenario(t, "statistical", simrun.Spec{Bench: "gcc", Insts: budget, Warmup: 100_000})
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

// TestEstimatorsRejectMultiProgram: the estimator is single-program; the
// rejection happens at scenario build time with the reason.
func TestEstimatorsRejectMultiProgram(t *testing.T) {
	_, err := simrun.Spec{Mix: []string{"gcc", "mcf"}, Engine: "statistical"}.Scenario()
	if err == nil {
		t.Fatal("statistical accepted a multi-program mix")
	}
	if !strings.Contains(err.Error(), "statistical") {
		t.Errorf("rejection does not name the engine: %v", err)
	}
}

// TestRegisteredEngines: the registry holds the full engine and the
// statistical estimator. A spec pinned to the deleted "simpoint" engine
// gets the ordinary unknown-engine rejection listing them.
func TestRegisteredEngines(t *testing.T) {
	if got := strings.Join(simrun.Engines(), ", "); got != "full, statistical" {
		t.Fatalf("engines = %s, want full, statistical", got)
	}
	_, err := simrun.Spec{Bench: "gcc", Engine: "simpoint"}.Scenario()
	if err == nil || !strings.Contains(err.Error(), `unknown engine "simpoint" (registered: full, statistical;`) {
		t.Fatalf("simpoint pin: %v", err)
	}
}

// TestCheapestEngineSelection: with the estimator registered, a
// single-program scenario whose full run costs more than the estimate is
// answered from the statistical engine; a small one, whose full run is
// cheaper than the estimate, and a multi-program one fall back to full.
func TestCheapestEngineSelection(t *testing.T) {
	for _, tc := range []struct {
		spec simrun.Spec
		want string
	}{
		{simrun.Spec{Bench: "gcc", Insts: 10_000}, simrun.DefaultEngine},
		{simrun.Spec{Bench: "gcc", Insts: 2_000_000}, "statistical"},
		{simrun.Spec{Bench: "gcc", Insts: 4_000_000, Warmup: 200_000}, "statistical"},
		{simrun.Spec{Mix: []string{"gcc", "mcf"}, Insts: 10_000}, simrun.DefaultEngine},
		{simrun.Spec{Mix: []string{"gcc", "mcf"}, Insts: 4_000_000}, simrun.DefaultEngine},
	} {
		sc, err := tc.spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if got := simrun.CheapestEngineFor(sc).Name; got != tc.want {
			t.Errorf("%s %d insts: cheapest = %q, want %q", sc.Name(), sc.InstBudget(), got, tc.want)
		}
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
		sp := simrun.Spec{Bench: name, Insts: 100_000, Warmup: 50_000}
		full, err := mustScenario(t, simrun.DefaultEngine, sp).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		est, err := mustScenario(t, "statistical", sp).Run(context.Background())
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
