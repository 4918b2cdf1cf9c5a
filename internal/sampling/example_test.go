package sampling_test

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/multicore"
	"repro/internal/sampling"
	"repro/internal/simrun"
	"repro/internal/trace"
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

	full, err := simrun.MustNew("mesa", simrun.Insts(total)).Run(context.Background())
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

// ExampleAnalyze phase-classifies a stream whose behaviour alternates
// between two programs, then predicts whole-run IPC from one timed
// representative per phase. Phase sampling (SimPoint, Sherwood et al.) is
// the third speedup family of the paper's related work; like SMARTS
// sampling it is orthogonal to interval simulation and the two compose.
func ExampleAnalyze() {
	// A phased stream: alternating gcc-like (branchy, cache-friendly) and
	// swim-like (streaming FP) segments.
	const segLen = 4000
	const segs = 20
	ga := workload.New(workload.SPECByName("gcc"), 0, 1, 42)
	gs := workload.New(workload.SPECByName("swim"), 0, 1, 43)
	insts := trace.Record(ga, segLen) // initialization segment
	for s := 1; s < segs; s++ {
		g := trace.Stream(ga)
		if s%2 == 1 {
			g = gs
		}
		insts = append(insts, trace.Record(g, segLen)...)
	}

	// 1. Classify phases from code signatures alone (no timing).
	sp, err := sampling.Analyze(insts, sampling.SimPointConfig{
		IntervalLen: segLen, K: 2, Seed: 9,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("phases: %d clusters over %d intervals (k-means took %d iterations)\n",
		sp.K, sp.Intervals(), sp.Iterations)
	fmt.Printf("assignments: %v\n", sp.Assignments)
	for c := 0; c < sp.K; c++ {
		fmt.Printf("  phase %d: weight %.2f, simulation point = interval %d\n",
			c, sp.Weights[c], sp.Representatives[c])
	}

	// 2. Time only the representatives and compare with the full run.
	est, err := sampling.EstimateIPC(insts, sp, config.Default(1), multicore.Interval)
	if err != nil {
		fmt.Println(err)
		return
	}
	full, err := simrun.MustNew("",
		simrun.Label("phased gcc~swim"),
		simrun.Streams([]trace.Stream{trace.NewSliceStream(insts)}, nil),
	).Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("\nfull run IPC        %.3f (%d intervals timed)\n", full.Cores[0].IPC, sp.Intervals())
	fmt.Printf("simpoint estimate   %.3f (%d intervals timed)\n", est, sp.K)
	fmt.Println()
	fmt.Println("Two timed intervals stand in for the whole run; combined with the")
	fmt.Println("interval core model the two speedups multiply.")
	// Output:
	// phases: 2 clusters over 20 intervals (k-means took 2 iterations)
	// assignments: [1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0]
	//   phase 0: weight 0.50, simulation point = interval 7
	//   phase 1: weight 0.50, simulation point = interval 4
	//
	// full run IPC        0.709 (20 intervals timed)
	// simpoint estimate   0.732 (2 intervals timed)
	//
	// Two timed intervals stand in for the whole run; combined with the
	// interval core model the two speedups multiply.
}
