package simrun

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/multicore"
)

// EngineDef is one way to produce an answer for a scenario. There are two:
// "full" runs the scenario's entire instruction budget under its core
// model, and "statistical" (internal/engine) times a short synthetic clone
// of it and extrapolates — orders of magnitude less work at a lower
// fidelity. All engines answer the *same* scenario — the engine choice
// never enters the scenario fingerprint — so a serving layer can answer
// cheap first and upgrade the cached answer when a higher tier lands.
type EngineDef struct {
	// Name is the engine's wire name, the value of Spec.Engine.
	Name string
	// tier classifies the fidelity of the engine's answer for s.
	tier func(s *Scenario) Tier
	// cost estimates the work of running s on this engine, in
	// simulated-instruction-equivalents. Only the ordering across
	// engines matters.
	cost func(s *Scenario) float64
	// supports is nil when the engine can answer s, an error explaining
	// why not otherwise.
	supports func(s *Scenario) error
	// run produces the engine's answer; Scenario.Run stamps its Engine
	// and Tier.
	run func(ctx context.Context, s *Scenario) (Result, error)
}

// DefaultEngine is the engine scenarios run under when none is chosen:
// the full-budget simulation of the scenario's core model.
const DefaultEngine = "full"

// engines is the closed engine set, DefaultEngine first.
var engines = [...]EngineDef{
	{
		Name:     DefaultEngine,
		tier:     fullTier,
		cost:     fullCost,
		supports: func(*Scenario) error { return nil },
		run:      func(ctx context.Context, s *Scenario) (Result, error) { return s.runFull(ctx) },
	},
	{
		Name:     "statistical",
		tier:     func(*Scenario) Tier { return TierStatistical },
		cost:     func(*Scenario) float64 { return engine.Cost },
		supports: func(s *Scenario) error { return engine.Supports(s.profile, s.Threads()) },
		run:      func(ctx context.Context, s *Scenario) (Result, error) { return s.runStatistical(ctx) },
	},
}

// Engines lists the engine names, DefaultEngine first.
func Engines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name
	}
	return names
}

// lookupEngine resolves an engine name. Unknown names fail loudly with the
// engine set in the message — this is the shared rejection choke point for
// both wire front ends (simd submissions and cmd/sweep -f batch files),
// mirroring the SpecVersion rejection.
func lookupEngine(name string) (EngineDef, error) {
	for _, e := range engines {
		if e.Name == name {
			return e, nil
		}
	}
	tiers := make([]string, 0, len(Tiers()))
	for _, t := range Tiers() {
		tiers = append(tiers, string(t))
	}
	return EngineDef{}, fmt.Errorf("simrun: unknown engine %q (registered: %s; tiers, cheapest first: %s)",
		name, strings.Join(Engines(), ", "), strings.Join(tiers, " < "))
}

// CheapestEngineFor returns the cheapest engine that supports s. The
// statistical engine ranks below every tier of the full engine, but it is
// eligible only when it costs less than the full run of s — a cheaper tier
// that takes longer than the definitive answer is no shortcut — so the
// "full" engine, which supports every scenario, is the answer otherwise.
func CheapestEngineFor(s *Scenario) EngineDef {
	full, statistical := engines[0], engines[1]
	if statistical.supports(s) == nil && statistical.cost(s) < full.cost(s) {
		return statistical
	}
	return full
}

// AnswerTier is the fidelity tier the scenario's selected engine answers
// at — what a cache lookup for this scenario must at least hold to count
// as a hit.
func (s *Scenario) AnswerTier() Tier {
	eng, err := lookupEngine(s.EngineName())
	if err != nil {
		return ""
	}
	return eng.tier(s)
}

// fullTier is the full engine's answer tier: it simulates the entire
// budget under the scenario's own core model, so the tier is the model's
// place in the lattice (detailed for the detailed model, interval for
// the analytical models).
func fullTier(s *Scenario) Tier {
	if s.spec.Model == "detailed" {
		return TierDetailed
	}
	return TierInterval
}

// fullCost weighs the full engine's work: every thread simulates the
// warmup plus measured budget, and the detailed model pays roughly an
// order of magnitude more per instruction than the analytical ones
// (the paper's speed comparison).
func fullCost(s *Scenario) float64 {
	perThread := float64(s.spec.Warmup + s.spec.Insts)
	weight := 1.0
	if s.spec.Model == "detailed" {
		weight = 10
	}
	return float64(s.Threads()) * perThread * weight
}

// runStatistical is the statistical engine: internal/engine's estimate of
// the scenario's one program on its resolved machine and model, timed on
// the driver directly, so it is one engine run and one host thread.
func (s *Scenario) runStatistical(ctx context.Context) (Result, error) {
	machine, err := s.ResolvedMachine()
	if err != nil {
		return Result{Scenario: s}, err
	}
	model, _ := multicore.ParseModel(s.spec.Model)
	r, err := engine.Statistical(ctx, s.profile, *s.spec.Seed, s.spec.Warmup, s.spec.Insts, machine, model)
	return Result{Scenario: s, Result: r}, err
}
