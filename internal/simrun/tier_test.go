package simrun

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestTierLattice(t *testing.T) {
	// Both ends are contract: the untagged tier is definitive (a payload
	// written before tiers existed must never be clobbered by an
	// estimate), and any other unknown tier — a retired estimator's — is
	// upgraded by every named one.
	order := []Tier{"retired", TierStatistical, TierInterval, TierDetailed, ""}
	for i := 1; i < len(order); i++ {
		if order[i].Rank() <= order[i-1].Rank() {
			t.Errorf("%s (rank %d) should outrank %s (rank %d)", order[i], order[i].Rank(), order[i-1], order[i-1].Rank())
		}
		if order[i-1].AtLeast(order[i]) {
			t.Errorf("%s.AtLeast(%s) = true", order[i-1], order[i])
		}
		if !order[i].AtLeast(order[i-1]) {
			t.Errorf("%s.AtLeast(%s) = false", order[i], order[i-1])
		}
	}
}

func TestTiersCheapestFirst(t *testing.T) {
	if got, want := fmt.Sprint(Tiers()), "[statistical interval detailed]"; got != want {
		t.Fatalf("Tiers() = %s, want %s", got, want)
	}
}

// TestUnknownEngineRejected is the loud-rejection contract: a typo'd
// engine name fails scenario construction with the registered set in the
// message, through both the option and the wire-format path.
func TestUnknownEngineRejected(t *testing.T) {
	_, err := Spec{Bench: "gcc", Engine: "warp"}.Scenario()
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, want := range []string{"unknown engine", `"warp"`, DefaultEngine} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	sp := Spec{Bench: "gcc", Engine: "warp"}
	if _, err := sp.Scenario(); err == nil {
		t.Fatal("spec with unknown engine accepted")
	}
}

// tierTestEngine registers a throwaway estimator engine and returns its
// name; registration is global and permanent, so every caller gets a
// distinct name and a test that runs again (-cpu 1,2, -count 2) finds its
// engine in place.
func tierTestEngine(t *testing.T, name string, tier Tier, cycles int64) string {
	t.Helper()
	if _, err := LookupEngine(name); err == nil {
		return name
	}
	RegisterEngine(EngineDef{
		Name:     name,
		Tier:     func(*Scenario) Tier { return tier },
		Cost:     func(*Scenario) float64 { return 1 },
		Supports: func(*Scenario) error { return nil },
		Run: func(ctx context.Context, s *Scenario) (Result, error) {
			var res Result
			res.Cycles = cycles
			res.TotalRetired = 100
			return res, nil
		},
	})
	return name
}

func TestForEngineSharesFingerprint(t *testing.T) {
	name := tierTestEngine(t, "tier-test-fp", TierStatistical, 1000)
	sc, err := Spec{Bench: "gcc", Insts: 5000, Warmup: 1000}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	est, err := sc.ForEngine(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("engine entered the fingerprint: %s vs %s", a, b)
	}
	if est.EngineName() != name || sc.EngineName() != DefaultEngine {
		t.Fatalf("ForEngine mangled engine names: %q / %q", est.EngineName(), sc.EngineName())
	}
}

// TestCacheUpgradeOnly pins the cache's one-key-per-scenario invariant:
// a slot only ever moves up the tier lattice.
func TestCacheUpgradeOnly(t *testing.T) {
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if !c.store("k", res, []byte("estimate"), TierStatistical) {
		t.Fatal("insert rejected")
	}
	if c.store("k", res, []byte("re-estimate"), TierStatistical) {
		t.Error("same-tier store accepted")
	}
	if !c.store("k", res, []byte("full"), TierInterval) {
		t.Error("upgrade rejected")
	}
	if c.store("k", res, []byte("estimate-again"), TierStatistical) {
		t.Error("downgrade accepted")
	}
	if c.store("k", res, []byte("tagless"), TierInterval) {
		t.Error("same-tier re-store accepted after upgrade")
	}
	if got := c.Stats().Upgrades; got != 1 {
		t.Errorf("upgrades counter = %d, want 1", got)
	}
}

// TestGetOrRunUpgradesInPlace drives the full tier flow through the
// public API: an estimator engine fills the slot at a cheap tier, a
// full-tier request for the same scenario re-runs and upgrades the same
// key, and a later cheap request is satisfied by the upgraded entry.
func TestGetOrRunUpgradesInPlace(t *testing.T) {
	cheap := tierTestEngine(t, "tier-test-cheap", TierStatistical, 7777)
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Spec{Bench: "gcc", Insts: 2000, Warmup: 500}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	est, err := full.ForEngine(cheap)
	if err != nil {
		t.Fatal(err)
	}

	e1, err := c.GetOrRun(context.Background(), est)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Tier != TierStatistical || e1.Source != SourceRun {
		t.Fatalf("estimate entry: tier %q source %q", e1.Tier, e1.Source)
	}

	e2, err := c.GetOrRun(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Tier != TierInterval || e2.Source != SourceRun {
		t.Fatalf("full entry: tier %q source %q", e2.Tier, e2.Source)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (shared key)", c.Len())
	}
	if got := c.Stats().Upgrades; got != 1 {
		t.Errorf("upgrades counter = %d, want 1", got)
	}

	// The cheap request is now a hit at the higher tier.
	e3, err := c.GetOrRun(context.Background(), est)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Source != SourceMemory || e3.Tier != TierInterval {
		t.Fatalf("post-upgrade estimate request: tier %q source %q", e3.Tier, e3.Source)
	}
	if runs := c.Stats().Runs; runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
}
