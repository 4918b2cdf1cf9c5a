package multicore_test

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSkippingMatchesSteppingEveryCycle: every core model sleeps through
// the cycles in which it has nothing to do, and the driver jumps over the
// cycles in which no core is awake. Stepping every core every cycle instead
// must give the same report, byte for byte, on one core and on the shared
// multi-core shapes: a heterogeneous mix on a mesh with the directory and
// banked DRAM, locks, and barriers.
func TestSkippingMatchesSteppingEveryCycle(t *testing.T) {
	const insts, warm = 15_000, 40_000
	spec := func(names ...string) func() ([]trace.Stream, []trace.Stream) {
		return func() ([]trace.Stream, []trace.Stream) {
			var streams, warmup []trace.Stream
			for i, name := range names {
				p := workload.SPECByName(name)
				streams = append(streams, trace.NewLimit(workload.NewSlot(p, 0, 1, 42+int64(i), i), insts))
				warmup = append(warmup, workload.NewSlot(p, 0, 1, 1042+int64(i), i).Functional())
			}
			return streams, warmup
		}
	}
	parsec := func(name string, n int) func() ([]trace.Stream, []trace.Stream) {
		q := *workload.PARSECByName(name)
		q.TotalWork = 60_000
		return func() ([]trace.Stream, []trace.Stream) {
			var streams, warmup []trace.Stream
			for i := 0; i < n; i++ {
				streams = append(streams, workload.New(&q, i, n, 42))
				warmup = append(warmup, workload.New(&q, i, n, 1042).Functional())
			}
			return streams, warmup
		}
	}
	machine := func(n int, fabric, coherence, dram string) config.Machine {
		m := config.Default(n)
		m.Mem.Interconnect, m.Mem.Coherence, m.Mem.DRAMKind = fabric, coherence, dram
		return m
	}
	shapes := []struct {
		name    string
		machine config.Machine
		streams func() ([]trace.Stream, []trace.Stream)
	}{
		{"mcf", config.Default(1), spec("mcf")},
		{"gcc", config.Default(1), spec("gcc")},
		{"mix4", machine(4, "mesh", "directory", "banked"), spec("gcc", "mcf", "swim", "twolf")},
		{"fluidanimate4", machine(4, "mesh", "directory", ""), parsec("fluidanimate", 4)},
		{"canneal8", config.Default(8), parsec("canneal", 8)},
	}
	for _, sh := range shapes {
		for _, m := range []multicore.Model{multicore.Detailed, multicore.Interval, multicore.OneIPC} {
			t.Run(sh.name+"/"+m.String(), func(t *testing.T) {
				cfg := multicore.RunConfig{Machine: sh.machine, Model: m, WarmupInsts: warm}
				streams, warmup := sh.streams()
				cfg.Warmup = warmup
				skipping := runJSON(t, cfg, streams)
				streams, warmup = sh.streams()
				cfg.Warmup = warmup
				stepping := runJSON(t, multicore.SteppingEveryCycle(cfg), streams)
				if !bytes.Equal(skipping, stepping) {
					t.Fatalf("skipping and stepping every cycle report differently:\n%s\n--\n%s", skipping, stepping)
				}
			})
		}
	}
}
