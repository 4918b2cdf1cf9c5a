package simrun

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFunctionalWarmTwinChangesNoByte: buildStreams warms every scenario
// through operand-free twins (workload.Generator.Functional). Warming the
// same scenario through full-stream twins instead — handed in through the
// Streams option — must produce a byte-identical report: one core with the
// stride prefetcher, a heterogeneous mix in address-space slots, and four
// threads sharing lines under each coherence protocol.
func TestFunctionalWarmTwinChangesNoByte(t *testing.T) {
	const insts, warm, seed = 30_000, 60_000, 7
	run := func(bench string, opts ...Option) []byte {
		t.Helper()
		opts = append(opts, Insts(insts), Warmup(warm), Seed(seed), KeepCores())
		s, err := New(bench, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := report.JSON(res.Result)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	same := func(name string, functional, full []byte) {
		t.Helper()
		if !bytes.Equal(functional, full) {
			t.Errorf("%s: warmed through functional twins\n%s\nwarmed through full twins\n%s", name, functional, full)
		}
	}

	gcc := workload.SPECByName("gcc")
	same("gcc + stride prefetch",
		run("gcc", Prefetch("stride")),
		run("", Prefetch("stride"), Streams(
			[]trace.Stream{trace.NewLimit(workload.New(gcc, 0, 1, seed), insts)},
			[]trace.Stream{workload.New(gcc, 0, 1, seed+warmSeedOffset)})))

	var streams, twins []trace.Stream
	for i, name := range []string{"mcf", "swim"} {
		p := workload.SPECByName(name)
		streams = append(streams, trace.NewLimit(workload.NewSlot(p, 0, 1, seed+int64(i), i), insts))
		twins = append(twins, workload.NewSlot(p, 0, 1, seed+warmSeedOffset+int64(i), i))
	}
	same("mcf+swim mix", run("", Mix("mcf", "swim")), run("", Streams(streams, twins)))

	for _, proto := range []string{"moesi", "mesi", "directory"} {
		p := *workload.PARSECByName("canneal")
		p.TotalWork = uint64(float64(p.TotalWork) * 0.1)
		streams, twins = nil, nil
		for i := 0; i < 4; i++ {
			streams = append(streams, workload.New(&p, i, 4, seed))
			twins = append(twins, workload.New(&p, i, 4, seed+warmSeedOffset))
		}
		same("canneal × 4 under "+proto,
			run("canneal", Cores(4), WorkScale(0.1), Coherence(proto)),
			run("", Coherence(proto), Streams(streams, twins)))
	}
}
