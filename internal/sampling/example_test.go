package sampling_test

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/multicore"
	"repro/internal/sampling"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// ExampleRun composes sampling with interval simulation: the paper calls
// the two orthogonal, since sampling reduces how many instructions are
// timed and interval simulation reduces the cost of timing each one. A
// SMARTS-style periodic regime over the interval core is compared against
// the full run.
func ExampleRun() {
	const total = 400_000
	m := config.Default(1)

	s, err := simrun.Spec{Bench: "mesa", Insts: total}.Scenario()
	if err != nil {
		fmt.Println(err)
		return
	}
	full, err := s.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%-28s IPC=%.3f\n", "full interval simulation:", full.Cores[0].IPC)

	p := workload.SPECByName("mesa")
	for _, period := range []int{20_000, 50_000, 100_000} {
		res, err := sampling.Run(sampling.Config{
			Unit: 10_000, Period: period,
			Model: multicore.Interval, Machine: m,
		}, workload.New(p, 0, 1, 42), total)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("sampled 1/%d of the stream:   IPC=%.3f (%d units, err %.1f%%)\n",
			period/10_000, res.SampledIPC, res.Units,
			100*metrics.RelError(full.Cores[0].IPC, res.SampledIPC))
	}
	fmt.Println()
	fmt.Println("Timing a fraction of the stream over the analytical core model")
	fmt.Println("multiplies the two speedups, as the paper's related work suggests.")
	// Output:
	// full interval simulation:    IPC=1.356
	// sampled 1/2 of the stream:   IPC=1.238 (20 units, err 8.7%)
	// sampled 1/5 of the stream:   IPC=1.368 (8 units, err 0.8%)
	// sampled 1/10 of the stream:   IPC=1.280 (4 units, err 5.7%)
	//
	// Timing a fraction of the stream over the analytical core model
	// multiplies the two speedups, as the paper's related work suggests.
}
