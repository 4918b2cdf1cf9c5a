package oneipc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

func run(t *testing.T, insts []isa.Inst, perfect memhier.Perfect) *Core {
	t.Helper()
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, perfect)
	c := New(0, mem, trace.NewSliceStream(insts), sim.NullSyncer{})
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 10_000_000 {
			t.Fatal("one-IPC core did not finish")
		}
	}
	return c
}

func alus(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{Class: isa.IntALU}
	}
	return out
}

func TestExactlyOneIPCWithoutMemory(t *testing.T) {
	c := run(t, alus(1000), memhier.Perfect{DSide: true})
	if got := c.IPC(); got < 0.99 || got > 1.01 {
		t.Fatalf("IPC = %.3f, want exactly 1", got)
	}
	if c.Retired() != 1000 {
		t.Fatalf("retired %d", c.Retired())
	}
}

func TestMemoryAddsLatency(t *testing.T) {
	insts := alus(100)
	insts[50] = isa.Inst{Class: isa.Load, Addr: 0x10000000000, Dst: 9,
		Src1: isa.RegNone, Src2: isa.RegNone}
	c := run(t, insts, memhier.Perfect{})
	// 99 ALU cycles + 1 load cycle + DRAM-ish latency.
	if c.FinishTime() < 100+100 {
		t.Fatalf("finish = %d, DRAM load free", c.FinishTime())
	}
}

func TestSyncBlocksUntilAllowed(t *testing.T) {
	insts := alus(10)
	insts[5] = isa.Inst{Class: isa.BarrierArrive}
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{DSide: true})
	gate := &gateSyncer{openAt: 300}
	c := New(0, mem, trace.NewSliceStream(insts), gate)
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 1_000_000 {
			t.Fatal("did not finish")
		}
	}
	if c.FinishTime() < 300 {
		t.Fatalf("finished at %d before barrier opened", c.FinishTime())
	}
}

type gateSyncer struct{ openAt int64 }

func (g *gateSyncer) Sync(core int, in *isa.Inst, now int64) sim.SyncDecision {
	if now < g.openAt {
		return sim.SyncDecision{}
	}
	return sim.SyncDecision{Proceed: true, Latency: 1}
}

func TestEventDrivenSkipping(t *testing.T) {
	insts := alus(20)
	insts[10] = isa.Inst{Class: isa.Load, Addr: 0x10000000000, Dst: 9,
		Src1: isa.RegNone, Src2: isa.RegNone}
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	c := New(0, mem, trace.NewSliceStream(insts), sim.NullSyncer{})
	var now int64
	for !c.Done() {
		wasAhead := !c.Done() && c.coreTime != now
		before := c.Retired()
		c.Step(now)
		if wasAhead && c.Retired() != before {
			t.Fatal("progress while local time ahead of global")
		}
		now++
	}
}
