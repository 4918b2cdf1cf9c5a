package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/simrun"
)

// ExampleCPIStack prints CPI stacks for benchmarks with very different
// bottlenecks: the practical payoff of interval simulation. Because every
// miss event charges an explicit analytical penalty, the model decomposes
// execution time into components exactly, where a detailed simulator has
// to approximate stall attribution. Spec.Report leaves the core models in
// the result so the stack can be read off the interval core.
func ExampleCPIStack() {
	for _, name := range []string{"mesa", "gcc", "mcf", "swim"} {
		s, err := simrun.Spec{Bench: name, Insts: 100_000, Warmup: 600_000, Report: true}.Scenario()
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := s.Run(context.Background())
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("== %s ==\n%s\n", name, res.Sim[0].(*core.Core).Stack())
	}
	fmt.Println("mesa is compute-bound (base dominates); gcc splits between branch")
	fmt.Println("and memory; mcf drowns in long-latency loads; swim pays DRAM")
	fmt.Println("bandwidth. The stacks make the bottleneck visible at a glance.")
	// Output:
	// == mesa ==
	// CPI stack (total 0.569 CPI over 100000 instructions):
	//   base          0.296 CPI   51.9%
	//   icache        0.000 CPI    0.0%
	//   branch        0.067 CPI   11.7%
	//   longload      0.207 CPI   36.4%
	//   serialize     0.000 CPI    0.0%
	//   sync          0.000 CPI    0.0%
	//
	// == gcc ==
	// CPI stack (total 0.751 CPI over 100000 instructions):
	//   base          0.236 CPI   31.4%
	//   icache        0.000 CPI    0.0%
	//   branch        0.144 CPI   19.2%
	//   longload      0.370 CPI   49.3%
	//   serialize     0.001 CPI    0.1%
	//   sync          0.000 CPI    0.0%
	//
	// == mcf ==
	// CPI stack (total 5.601 CPI over 100000 instructions):
	//   base          0.215 CPI    3.8%
	//   icache        0.000 CPI    0.0%
	//   branch        0.180 CPI    3.2%
	//   longload      5.207 CPI   93.0%
	//   serialize     0.000 CPI    0.0%
	//   sync          0.000 CPI    0.0%
	//
	// == swim ==
	// CPI stack (total 0.743 CPI over 100000 instructions):
	//   base          0.316 CPI   42.6%
	//   icache        0.000 CPI    0.0%
	//   branch        0.014 CPI    1.9%
	//   longload      0.413 CPI   55.6%
	//   serialize     0.000 CPI    0.0%
	//   sync          0.000 CPI    0.0%
	//
	// mesa is compute-bound (base dominates); gcc splits between branch
	// and memory; mcf drowns in long-latency loads; swim pays DRAM
	// bandwidth. The stacks make the bottleneck visible at a glance.
}
