package engine_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/simrun"
)

// These tests drive the estimator through simrun's engine selector, its
// one caller; they live in an external test package because simrun
// imports internal/engine and not the other way round.

func mustScenario(t *testing.T, sp simrun.Spec) *simrun.Scenario {
	t.Helper()
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return sc
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

// TestRegisteredEngines: the engine set is the full engine and the
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

// TestCheapestEngineSelection: a single-program scenario whose full run
// costs more than the estimate is answered from the statistical engine; a
// small one, whose full run is cheaper than the estimate, and a
// multi-program one fall back to full.
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
		sc := mustScenario(t, tc.spec)
		if got := simrun.CheapestEngineFor(sc).Name; got != tc.want {
			t.Errorf("%s %d insts: cheapest = %q, want %q", sc.Name(), sc.TotalInstBudget(), got, tc.want)
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
		full, err := mustScenario(t, sp).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sp.Engine = "statistical"
		est, err := mustScenario(t, sp).Run(context.Background())
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
