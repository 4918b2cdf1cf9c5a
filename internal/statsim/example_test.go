package statsim_test

import (
	"context"
	"fmt"
	"math"

	"repro/internal/simrun"
	"repro/internal/statsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExampleNewClone profiles a benchmark's dynamic execution, generates a
// 5x-shorter synthetic clone, and checks that the clone predicts the
// original's IPC. Statistical simulation is the related-work baseline the
// paper positions interval simulation against, and an orthogonal speedup
// (fewer instructions) that composes with it (cheaper timing per
// instruction).
func ExampleNewClone() {
	const n = 60_000
	const warm = 20_000

	// ipc times a stream on the interval model after functionally warming
	// with its first warm instructions.
	ipc := func(label string, src trace.Stream) float64 {
		head := trace.Record(src, warm)
		res, err := simrun.MustNew("",
			simrun.Label(label),
			simrun.Streams([]trace.Stream{src}, []trace.Stream{trace.NewSliceStream(head)}),
			simrun.Warmup(warm),
		).Run(context.Background())
		if err != nil {
			panic(err)
		}
		return res.Cores[0].IPC
	}

	fmt.Printf("%-8s %14s %14s %10s %10s\n", "bench", "original IPC", "clone IPC", "err", "chase")
	for _, name := range []string{"gcc", "mcf", "swim", "equake"} {
		p := workload.SPECByName(name)

		// Profile the original stream (with functional warmup so the
		// locality statistics reflect steady state).
		prof := statsim.CollectWarm(workload.New(p, 0, 1, 42), warm, n+warm)

		orig := ipc(name, trace.NewLimit(workload.New(p, 0, 1, 42), n+warm))
		clone := ipc(name+" clone", statsim.NewClone(prof, warm+n/5, 99))

		fmt.Printf("%-8s %14.3f %14.3f %9.1f%% %9.2f\n",
			name, orig, clone, 100*math.Abs(orig-clone)/orig, prof.LoadLoadRate())
	}

	fmt.Println()
	fmt.Println("The clone carries the profile's instruction mix, dependence distances,")
	fmt.Println("per-branch bias, cache hit rates, miss clustering (MLP) and pointer-")
	fmt.Println("chase fraction — and is 5x shorter than the original.")
	// Output:
	// bench      original IPC      clone IPC        err      chase
	// gcc               0.628          0.578       8.0%      0.23
	// mcf               0.167          0.162       2.9%      0.72
	// swim              1.333          1.407       5.5%      0.16
	// equake            1.277          1.387       8.6%      0.37
	//
	// The clone carries the profile's instruction mix, dependence distances,
	// per-branch bias, cache hit rates, miss clustering (MLP) and pointer-
	// chase fraction — and is 5x shorter than the original.
}
