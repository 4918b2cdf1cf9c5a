package simrun_test

import (
	"context"
	"fmt"

	"repro/internal/simrun"
)

// ExampleNew shows the canonical way to describe and execute one
// simulation: name a benchmark profile, describe the run as a Spec, run.
// A spec can also build itself (Spec.Scenario); New is where the code-only
// options, Streams and Observe, join it.
func ExampleNew() {
	s, err := simrun.New("gcc", simrun.Spec{
		Model:  "interval",
		Cores:  2,
		Insts:  5_000,
		Warmup: 10_000,
	}.Options()...)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("model=%s cores=%d completed=%v\n",
		res.Model, len(res.Cores), res.TotalRetired == 10_000)
	// Output: model=interval cores=2 completed=true
}

// ExampleSpec simulates one benchmark with interval simulation and
// compares it against the detailed cycle-level baseline on the same
// machine. Scenarios are deterministic: both models see identical
// instructions and drive identical branch-predictor and memory-hierarchy
// simulators; only the core timing model differs. The benchmark is
// gcc-like (branchy with a large code footprint) on the paper's Table 1
// machine.
func ExampleSpec() {
	for _, model := range []string{"detailed", "interval"} {
		s, err := simrun.Spec{Bench: "gcc", Model: model, Insts: 100_000, Warmup: 600_000}.Scenario()
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := s.Run(context.Background())
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-9s IPC=%.3f cycles=%d\n", res.Model, res.Cores[0].IPC, res.Cycles)
	}

	fmt.Println()
	fmt.Println("Interval simulation replaces the cycle-accurate core model with a")
	fmt.Println("mechanistic analytical model: expect a close IPC at a much higher")
	fmt.Println("simulation speed.")
	// Output:
	// detailed  IPC=1.494 cycles=66917
	// interval  IPC=1.332 cycles=75079
	//
	// Interval simulation replaces the cycle-accurate core model with a
	// mechanistic analytical model: expect a close IPC at a much higher
	// simulation speed.
}
