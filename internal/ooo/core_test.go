package ooo

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

func runCore(t *testing.T, c *Core) {
	t.Helper()
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 10_000_000 {
			t.Fatal("detailed core did not finish")
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

func TestIndependentALUNearWidth(t *testing.T) {
	c, _ := build(seqALU(8000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, c)
	if c.Retired() != 8000 {
		t.Fatalf("retired %d", c.Retired())
	}
	if ipc := c.IPC(); ipc < 3.5 {
		t.Fatalf("IPC = %.3f, want near dispatch width 4", ipc)
	}
}

func TestSerialChainAtOne(t *testing.T) {
	insts := seqALU(4000)
	for i := range insts {
		insts[i].Src1 = 10
		insts[i].Dst = 10
	}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, c)
	if ipc := c.IPC(); ipc < 0.85 || ipc > 1.1 {
		t.Fatalf("serial-chain IPC = %.3f, want ~1", ipc)
	}
}

func TestConsumerWaitsForProducer(t *testing.T) {
	// A single load feeding a long chain of dependents: the chain cannot
	// start before the load returns from memory.
	insts := seqALU(300)
	insts[100] = isa.Inst{Seq: 100, PC: 0x400100, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 40}
	for i := 101; i < 160; i++ {
		insts[i] = isa.Inst{Seq: uint64(i), PC: 0x400000 + uint64(i)*4,
			Class: isa.IntALU, Src1: 40, Src2: isa.RegNone, Dst: 40}
	}
	c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
	runCore(t, c)
	base, _ := build(seqALU(300), memhier.Perfect{ISide: true}, "perfect")
	runCore(t, base)
	if c.Cycles < base.Cycles+150 {
		t.Fatalf("dependent chain after a DRAM load finished in %d vs base %d: scoreboard broken",
			c.Cycles, base.Cycles)
	}
}

func TestWAWDoesNotFalselyBlock(t *testing.T) {
	// Two writers of the same register with independent consumers: the
	// second writer must track its own producer, not serialize behind
	// the first writer's consumer.
	insts := seqALU(1000)
	for i := range insts {
		insts[i].Dst = uint8(8 + i%4) // heavy register reuse
	}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, c)
	if ipc := c.IPC(); ipc < 3.0 {
		t.Fatalf("register-reuse IPC = %.3f, want near width (no false WAW stalls)", ipc)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	mk := func(pred string) int64 {
		insts := seqALU(3000)
		for i := 100; i < 2900; i += 10 {
			insts[i] = isa.Inst{Seq: uint64(i), PC: 0x400100,
				Class: isa.Branch, Taken: i%20 == 0, Target: 0x400000,
				Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
		}
		c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, pred)
		runCore(t, c)
		return c.Cycles
	}
	slow, fast := mk("bimodal"), mk("perfect")
	if slow <= fast+100 {
		t.Fatalf("mispredictions cost %d cycles (perfect %d): redirect not modeled", slow, fast)
	}
}

func TestSerializingDrainsROB(t *testing.T) {
	insts := seqALU(1000)
	insts[500] = isa.Inst{Seq: 500, PC: 0x4007D0, Class: isa.Serializing,
		Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, c)
	base, _ := build(seqALU(1000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, base)
	if c.Cycles <= base.Cycles {
		t.Fatal("serializing instruction cost nothing")
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A burst of stores that all miss to DRAM must not be free: the
	// store buffer fills and commit stalls.
	insts := make([]isa.Inst, 2000)
	for i := range insts {
		insts[i] = isa.Inst{Seq: uint64(i), PC: 0x400000 + uint64(i%16)*4,
			Class: isa.Store, Addr: 0x10000000000 + uint64(i)*64,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
	}
	c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
	runCore(t, c)
	if ipc := c.IPC(); ipc > 1.5 {
		t.Fatalf("DRAM-missing store burst IPC = %.3f: store buffer free", ipc)
	}
}

func TestLoadsOverlapMLP(t *testing.T) {
	// Independent DRAM loads spread in a window overlap: N loads cost
	// far less than N x latency.
	mk := func(nLoads int) int64 {
		insts := seqALU(600)
		for k := 0; k < nLoads; k++ {
			insts[200+k] = isa.Inst{Seq: uint64(200 + k), PC: 0x400200 + uint64(k)*4,
				Class: isa.Load, Addr: 0x10000000000 + uint64(k)*1<<20,
				Src1: isa.RegNone, Src2: isa.RegNone, Dst: uint8(40 + k%8)}
		}
		c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
		runCore(t, c)
		return c.Cycles
	}
	base := mk(0)
	four := mk(4)
	if four-base > 2*(mk(1)-base)+50 {
		t.Fatalf("four independent misses cost %d vs base %d: no MLP", four-base, mk(1)-base)
	}
}

func TestSyncWaitsAtDispatch(t *testing.T) {
	insts := seqALU(100)
	insts[50] = isa.Inst{Seq: 50, Class: isa.BarrierArrive}
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gate := &gateSyncer{openAt: 700}
	c := New(0, m.Core, bp, mem, trace.NewSliceStream(insts), gate)
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 1_000_000 {
			t.Fatal("did not finish")
		}
	}
	if c.FinishTime() < 700 {
		t.Fatalf("finished at %d before the barrier opened", c.FinishTime())
	}
	if c.Retired() != 100 {
		t.Fatalf("retired %d", c.Retired())
	}
}

type gateSyncer struct{ openAt int64 }

func (g *gateSyncer) Sync(core int, in *isa.Inst, now int64) sim.SyncDecision {
	if now < g.openAt {
		return sim.SyncDecision{}
	}
	return sim.SyncDecision{Proceed: true, Latency: 1}
}

func TestRetiredExactAndDone(t *testing.T) {
	c, _ := build(seqALU(7777), memhier.Perfect{}, "")
	runCore(t, c)
	if c.Retired() != 7777 {
		t.Fatalf("retired = %d", c.Retired())
	}
	if !c.Done() || c.FinishTime() <= 0 {
		t.Fatal("completion state wrong")
	}
}

func TestFunctionalUnitContention(t *testing.T) {
	// Pure FP stream: issue is bounded by 4 FP units even though issue
	// width is 6.
	insts := make([]isa.Inst, 4000)
	for i := range insts {
		insts[i] = isa.Inst{Seq: uint64(i), PC: 0x400000 + uint64(i%64)*4,
			Class: isa.FPOp, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: uint8(8 + i%32)}
	}
	c, _ := build(insts, memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(t, c)
	if ipc := c.IPC(); ipc > 4.05 {
		t.Fatalf("FP-only IPC = %.3f exceeds 4 FP units", ipc)
	}
}

// TestStepAllocsNothing pins the allocation-free steady state: once the
// core is built, stepping it allocates nothing, whether it issues most
// cycles (gcc) or waits for DRAM most cycles (mcf). The generator and the
// single-core hierarchy it runs over allocate nothing either, so the whole
// step is measured, not the core in isolation.
func TestStepAllocsNothing(t *testing.T) {
	for _, name := range []string{"gcc", "mcf"} {
		m := config.Default(1)
		mem := memhier.New(1, m.Mem, memhier.Perfect{})
		bp := branch.NewUnit(m.Branch)
		c := New(0, m.Core, bp, mem, workload.New(workload.SPECByName(name), 0, 1, 42), sim.NullSyncer{})
		var now int64
		for c.Retired() < 20_000 { // past the cold start
			c.Step(now)
			now++
		}
		start := c.Retired()
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 4000; i++ {
				c.Step(now)
				now++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per 4000 steps, want 0", name, allocs)
		}
		if c.Retired() == start {
			t.Errorf("%s: no instruction retired while measuring", name)
		}
	}
}

// TestOccupancyBoundsAndDataflowLimit checks, on an all-perfect galgel run
// (no miss events: the back end alone sets the pace), that no structure ever
// holds more than it was configured with, and that the core is not faster
// than the program allows: its IPC cannot exceed the dispatch width, nor the
// dataflow limit of the same stream on an infinite window and width.
func TestOccupancyBoundsAndDataflowLimit(t *testing.T) {
	const n = 50_000
	p := workload.SPECByName("galgel")
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	c := New(0, m.Core, bp, mem, trace.NewLimit(workload.New(p, 0, 1, 42), n), sim.NullSyncer{})
	cfg := m.Core
	for now := int64(0); !c.Done(); now++ {
		c.Step(now)
		if c.head > c.disp || c.disp > c.tail || c.sbHead > c.sbTail || c.iqCount < 0 || c.lsqCount < 0 {
			t.Fatalf("cycle %d: head %d disp %d tail %d, store buffer %d..%d, iq %d lsq %d",
				now, c.head, c.disp, c.tail, c.sbHead, c.sbTail, c.iqCount, c.lsqCount)
		}
		rob, fq, sb := int(c.disp-c.head), int(c.tail-c.disp), int(c.sbTail-c.sbHead)
		if rob > cfg.ROBSize || c.iqCount > cfg.IssueQueueSize || c.lsqCount > cfg.LSQSize ||
			sb > cfg.StoreBufferSize || fq > cfg.FetchQueue+cfg.FrontendDepth*cfg.FetchWidth {
			t.Fatalf("cycle %d: rob %d iq %d lsq %d store buffer %d fetch queue %d exceed %+v",
				now, rob, c.iqCount, c.lsqCount, sb, fq, cfg)
		}
	}

	// The dataflow limit: every instruction starts when its operands are
	// ready and nothing else holds it back.
	var ready [isa.NumRegs]int64
	var makespan int64
	for _, in := range trace.Record(workload.New(p, 0, 1, 42), n) {
		var start int64
		if in.Src1 != isa.RegNone {
			start = max(start, ready[in.Src1])
		}
		if in.Src2 != isa.RegNone {
			start = max(start, ready[in.Src2])
		}
		complete := start + int64(cfg.ExecLatency(in.Class))
		if in.HasDst() {
			ready[in.Dst] = complete
		}
		makespan = max(makespan, complete)
	}
	limit := min(float64(cfg.DecodeWidth), float64(n)/float64(makespan))
	if c.Retired() != n || c.IPC() > limit {
		t.Fatalf("retired %d at IPC %.4f; the stream allows at most %.4f", c.Retired(), c.IPC(), limit)
	}
}
