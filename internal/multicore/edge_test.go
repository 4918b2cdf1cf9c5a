package multicore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Edge cases and failure injection for the driver: degenerate streams,
// stream-count mismatch, cycle-limit timeout and event-driven time
// skipping consistency.

func TestEmptyStreamsFinishImmediately(t *testing.T) {
	for _, model := range []Model{Interval, Detailed, OneIPC} {
		res := Run(RunConfig{Machine: config.Default(2), Model: model},
			[]trace.Stream{trace.NewSliceStream(nil), trace.NewSliceStream(nil)})
		if res.TotalRetired != 0 {
			t.Errorf("%v: retired %d from empty streams", model, res.TotalRetired)
		}
		if res.TimedOut {
			t.Errorf("%v: empty run timed out", model)
		}
	}
}

func TestSingleInstructionStream(t *testing.T) {
	one := []isa.Inst{{Class: isa.IntALU, PC: 0x400000,
		Src1: isa.RegNone, Src2: isa.RegNone, Dst: 8}}
	for _, model := range []Model{Interval, Detailed, OneIPC} {
		res := Run(RunConfig{Machine: config.Default(1), Model: model},
			[]trace.Stream{trace.NewSliceStream(one)})
		if res.TotalRetired != 1 {
			t.Errorf("%v: retired %d, want 1", model, res.TotalRetired)
		}
		if res.Cores[0].Finish <= 0 {
			t.Errorf("%v: finish time %d", model, res.Cores[0].Finish)
		}
	}
}

func TestMismatchedStreamCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3 streams for 2 cores did not panic")
		}
	}()
	Run(RunConfig{Machine: config.Default(2), Model: Interval}, []trace.Stream{
		trace.NewSliceStream(nil), trace.NewSliceStream(nil), trace.NewSliceStream(nil),
	})
}

func TestMaxCyclesTimeout(t *testing.T) {
	// A generous workload with an absurdly small cycle budget must time
	// out and say so, rather than spin or lie, and stop at the budget under
	// every model, on the single-core loop and the general one: the run's
	// cycles and every unfinished core's finish time are MaxCycles, though
	// the interval and one-IPC cores sleep past it inside a miss.
	p := workload.SPECByName("mcf")
	for _, m := range []Model{Detailed, Interval, OneIPC} {
		for _, cores := range []int{1, 2} {
			streams := make([]trace.Stream, cores)
			for i := range streams {
				streams[i] = trace.NewLimit(workload.New(p, i, cores, 42), 100_000)
			}
			res := Run(RunConfig{Machine: config.Default(cores), Model: m, MaxCycles: 50}, streams)
			if !res.TimedOut {
				t.Fatalf("%v x%d: run did not report a timeout", m, cores)
			}
			if res.TotalRetired >= uint64(cores)*100_000 {
				t.Fatalf("%v x%d: run claims completion despite the timeout", m, cores)
			}
			if res.Cycles != 50 {
				t.Errorf("%v x%d: timed out at %d cycles, want 50", m, cores, res.Cycles)
			}
			for i, c := range res.Cores {
				if c.Finish != 50 {
					t.Errorf("%v x%d: unfinished core %d finishes at %d, want 50", m, cores, i, c.Finish)
				}
			}
		}
	}
}

// TestUnevenStreamLengths: cores finishing at very different times must
// not distort each other's results; the machine time is the last finish.
func TestUnevenStreamLengths(t *testing.T) {
	p := workload.SPECByName("gcc")
	res := Run(RunConfig{Machine: config.Default(2), Model: Interval},
		[]trace.Stream{
			trace.NewLimit(workload.New(p, 0, 1, 42), 1_000),
			trace.NewLimit(workload.New(p, 0, 1, 43), 20_000),
		})
	if res.Cores[0].Retired != 1_000 || res.Cores[1].Retired != 20_000 {
		t.Fatalf("retired %d/%d", res.Cores[0].Retired, res.Cores[1].Retired)
	}
	if res.Cores[0].Finish >= res.Cores[1].Finish {
		t.Fatal("short thread did not finish first")
	}
	if res.Cycles != res.Cores[1].Finish {
		t.Fatalf("machine time %d != last finish %d", res.Cycles, res.Cores[1].Finish)
	}
}

// TestSerializingOnlyStream: a stream of nothing but serializing
// instructions exercises the drain path exclusively.
func TestSerializingOnlyStream(t *testing.T) {
	insts := make([]isa.Inst, 200)
	for i := range insts {
		insts[i] = isa.Inst{PC: 0x400000 + uint64(i)*4,
			Class: isa.Serializing, Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
	}
	for _, model := range []Model{Interval, Detailed} {
		res := Run(RunConfig{Machine: config.Default(1), Model: model},
			[]trace.Stream{trace.NewSliceStream(insts)})
		if res.TotalRetired != 200 {
			t.Errorf("%v: retired %d, want 200", model, res.TotalRetired)
		}
	}
}

// TestStoresOnlyStream exercises the write path (write-allocate fills,
// coherence upgrades) without any load traffic.
func TestStoresOnlyStream(t *testing.T) {
	insts := make([]isa.Inst, 500)
	for i := range insts {
		insts[i] = isa.Inst{PC: 0x400000,
			Class: isa.Store, Addr: uint64(i%64) * 64,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
	}
	for _, model := range []Model{Interval, Detailed} {
		res := Run(RunConfig{Machine: config.Default(1), Model: model},
			[]trace.Stream{trace.NewSliceStream(insts)})
		if res.TotalRetired != 500 {
			t.Errorf("%v: retired %d, want 500", model, res.TotalRetired)
		}
	}
}

// TestWarmupLongerThanStream: warmup that exhausts the warmup stream must
// not break the timed run.
func TestWarmupLongerThanStream(t *testing.T) {
	p := workload.SPECByName("gcc")
	short := trace.Record(workload.New(p, 0, 1, 77), 500)
	res := Run(RunConfig{
		Machine:     config.Default(1),
		Model:       Interval,
		WarmupInsts: 100_000, // far longer than the 500-instruction warmup stream
		Warmup:      []trace.Stream{trace.NewSliceStream(short)},
	}, []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), 2_000)})
	if res.TotalRetired != 2_000 {
		t.Fatalf("retired %d, want 2000", res.TotalRetired)
	}
}
