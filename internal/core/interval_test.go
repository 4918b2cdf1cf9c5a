package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// build creates a single interval core over fresh structures.
func build(insts []isa.Inst, perfect memhier.Perfect, predictor string) (*Core, *memhier.Hierarchy) {
	m := config.Default(1)
	if predictor != "" {
		m.Branch.Kind = predictor
	}
	mem := memhier.New(1, m.Mem, perfect)
	bp := branch.NewUnit(m.Branch)
	c := New(0, m.Core, bp, mem, trace.NewSliceStream(insts), sim.NullSyncer{})
	return c, mem
}

// runCore drives the core to completion through the cycle loop.
func runCore(c *Core) {
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 10_000_000 {
			panic("interval core did not finish")
		}
	}
}

func seqALU(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{
			Seq: uint64(i), PC: 0x400000 + uint64(i%64)*4,
			Class: isa.IntALU, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: uint8(8 + i%32),
		}
	}
	return out
}

func TestIndependentALURunsAtWidth(t *testing.T) {
	c, _ := build(seqALU(4000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(c)
	if c.Retired() != 4000 {
		t.Fatalf("retired %d", c.Retired())
	}
	if ipc := c.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Fatalf("IPC = %.3f, want ~4 (dispatch width)", ipc)
	}
}

func TestSerialChainRunsAtOne(t *testing.T) {
	insts := seqALU(4000)
	for i := range insts {
		insts[i].Src1 = 10
		insts[i].Dst = 10
	}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(c)
	if ipc := c.IPC(); ipc < 0.85 || ipc > 1.25 {
		t.Fatalf("serial-chain IPC = %.3f, want ~1", ipc)
	}
}

func TestSerializingChargesDrain(t *testing.T) {
	insts := seqALU(1000)
	insts[500] = isa.Inst{Seq: 500, PC: 0x400800, Class: isa.Serializing,
		Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(c)
	if c.SerializeEvents != 1 {
		t.Fatalf("serialize events = %d, want 1", c.SerializeEvents)
	}
	base, _ := build(seqALU(1000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(base)
	if c.LocalTime() <= base.LocalTime() {
		t.Fatal("serializing instruction added no time")
	}
}

func TestLongLatencyLoadChargesMiss(t *testing.T) {
	insts := seqALU(600)
	insts[300] = isa.Inst{Seq: 300, PC: 0x400400, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 9}
	c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
	runCore(c)
	if c.LongLoadEvents != 1 {
		t.Fatalf("long-load events = %d, want 1", c.LongLoadEvents)
	}
	base, _ := build(seqALU(600), memhier.Perfect{ISide: true}, "perfect")
	runCore(base)
	// The penalty is the miss latency minus the ROB-fill headroom.
	delta := c.LocalTime() - base.LocalTime()
	if delta < 50 || delta > 400 {
		t.Fatalf("miss penalty = %d cycles, want O(memory latency)", delta)
	}
}

func TestOverlappedLoadsChargeOnce(t *testing.T) {
	// Two independent long-latency loads close together: MLP means the
	// pair costs roughly one memory latency, not two.
	mkOne := func(addrs ...uint64) int64 {
		insts := seqALU(600)
		for k, a := range addrs {
			insts[300+k] = isa.Inst{Seq: uint64(300 + k), PC: 0x400400 + uint64(k)*4,
				Class: isa.Load, Addr: a,
				Src1: isa.RegNone, Src2: isa.RegNone, Dst: uint8(40 + k)}
		}
		c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
		runCore(c)
		return c.LocalTime()
	}
	base := mkOne()
	one := mkOne(0x10000000000)
	two := mkOne(0x10000000000, 0x20000000000)
	costOne := one - base
	costTwo := two - base
	if costTwo > costOne+costOne/2 {
		t.Fatalf("two overlapping misses cost %d vs one %d: no MLP", costTwo, costOne)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// The second load consumes the first one's result: penalties add.
	mk := func(dependent bool) int64 {
		insts := seqALU(600)
		insts[300] = isa.Inst{Seq: 300, PC: 0x400400, Class: isa.Load,
			Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 40}
		src := uint8(isa.RegNone)
		if dependent {
			src = 40
		}
		insts[301] = isa.Inst{Seq: 301, PC: 0x400404, Class: isa.Load,
			Addr: 0x20000000000, Src1: src, Src2: isa.RegNone, Dst: 41}
		c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
		runCore(c)
		return c.LocalTime()
	}
	if dep, indep := mk(true), mk(false); dep <= indep+50 {
		t.Fatalf("dependent pair (%d) not slower than independent pair (%d)", dep, indep)
	}
}

func TestBranchMispredictionChargesResolutionPlusFrontend(t *testing.T) {
	// An always-alternating branch with a bimodal predictor mispredicts
	// heavily; with the perfect predictor the same stream is fast.
	mk := func(pred string) int64 {
		insts := seqALU(2000)
		for i := 100; i < 1900; i += 10 {
			insts[i] = isa.Inst{Seq: uint64(i), PC: 0x400100,
				Class: isa.Branch, Taken: i%20 == 0, Target: 0x400000,
				Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
		}
		c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, pred)
		runCore(c)
		return c.LocalTime()
	}
	if slow, fast := mk("bimodal"), mk("perfect"); slow <= fast {
		t.Fatal("mispredictions added no time")
	}
}

func TestICacheMissCharged(t *testing.T) {
	// Instructions spread over a huge code footprint (every line
	// distinct) miss the L1I constantly; compare against the same
	// stream with a perfect I-side.
	mk := func(perfect bool) int64 {
		insts := seqALU(2000)
		for i := range insts {
			insts[i].PC = 0x400000 + uint64(i)*64 // one line each
		}
		c, _ := build(insts, memhier.Perfect{ISide: perfect, DSide: true}, "perfect")
		runCore(c)
		return c.LocalTime()
	}
	if miss, hit := mk(false), mk(true); miss <= hit {
		t.Fatal("I-cache misses added no time")
	}
}

func TestSyncStallsUntilAllowed(t *testing.T) {
	insts := seqALU(100)
	insts[50] = isa.Inst{Seq: 50, Class: isa.BarrierArrive}
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gate := &gateSyncer{openAt: 500}
	c := New(0, m.Core, bp, mem, trace.NewSliceStream(insts), gate)
	runCore(c)
	if c.LocalTime() < 500 {
		t.Fatalf("core finished at %d, before the barrier opened at 500", c.LocalTime())
	}
	if c.Retired() != 100 {
		t.Fatalf("retired %d", c.Retired())
	}
}

// gateSyncer blocks all sync operations until a fixed time.
type gateSyncer struct{ openAt int64 }

func (g *gateSyncer) Sync(core int, in *isa.Inst, now int64) sim.SyncDecision {
	if now < g.openAt {
		return sim.SyncDecision{}
	}
	return sim.SyncDecision{Proceed: true, Latency: 1}
}

func TestRetiredCountExact(t *testing.T) {
	c, _ := build(seqALU(12345), memhier.Perfect{}, "")
	runCore(c)
	if c.Retired() != 12345 {
		t.Fatalf("retired = %d, want 12345", c.Retired())
	}
	if c.FinishTime() <= 0 {
		t.Fatal("finish time not set")
	}
}

func TestStepSkipsWhenAhead(t *testing.T) {
	insts := seqALU(600)
	insts[100] = isa.Inst{Seq: 100, PC: 0x400100, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 9}
	c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
	// Step cycle by cycle and verify the core ignores cycles while its
	// local time is ahead of global time (event-driven at core level).
	var now int64
	for !c.Done() {
		wasAhead := c.LocalTime() != now
		before := c.Retired()
		c.Step(now)
		if wasAhead && c.Retired() != before {
			t.Fatal("core made progress while ahead of global time")
		}
		now++
	}
}

// buildMachine and buildWith are helpers shared by the CPI-stack tests.
func buildMachine() config.Machine {
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	return m
}

func buildWith(m config.Machine, insts []isa.Inst, syncer sim.Syncer) *Core {
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	return New(0, m.Core, bp, mem, trace.NewSliceStream(insts), syncer)
}

// TestIntervalStepAllocsNothing pins the allocation-free steady state: once
// the core is built, stepping it allocates nothing — neither where it mostly
// dispatches (gcc) nor where a long-latency load and its overlap scan come
// every few dozen instructions (mcf). The generator and the single-core
// hierarchy it runs over allocate nothing either, so the whole step is
// measured, not the core in isolation.
func TestIntervalStepAllocsNothing(t *testing.T) {
	for _, name := range []string{"gcc", "mcf"} {
		m := config.Default(1)
		mem := memhier.New(1, m.Mem, memhier.Perfect{})
		bp := branch.NewUnit(m.Branch)
		c := New(0, m.Core, bp, mem, workload.New(workload.SPECByName(name), 0, 1, 42), sim.NullSyncer{})
		var now int64
		for c.Retired() < 20_000 { // past the cold start
			c.Step(now)
			now = c.NextActive(now + 1)
		}
		retired, scans := c.Retired(), c.LongLoadEvents
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 4000; i++ {
				c.Step(now)
				now = c.NextActive(now + 1)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per 4000 steps, want 0", name, allocs)
		}
		if c.Retired() == retired {
			t.Errorf("%s: no instruction retired while measuring", name)
		}
		if name == "mcf" && c.LongLoadEvents-scans < 100 {
			t.Errorf("mcf: %d overlap scans while measuring, want a run that takes them", c.LongLoadEvents-scans)
		}
	}
}
