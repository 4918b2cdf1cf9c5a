package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildOpts creates a single interval core with ablation options.
func buildOpts(insts []isa.Inst, perfect memhier.Perfect, predictor string, opts Options, mutate func(*config.Machine)) *Core {
	m := config.Default(1)
	if predictor != "" {
		m.Branch.Kind = predictor
	}
	if mutate != nil {
		mutate(&m)
	}
	mem := memhier.New(1, m.Mem, perfect)
	bp := branch.NewUnit(m.Branch)
	return New(0, m.Core, opts, bp, mem, trace.NewSliceStream(insts), sim.NullSyncer{})
}

func TestOptionsName(t *testing.T) {
	if got := (Options{}).Name(); got != "full" {
		t.Errorf("zero Options name %q, want full", got)
	}
	o := Options{NoROBFillHiding: true, NoTaint: true}
	if got := o.Name(); got != "no-robfill+no-taint" {
		t.Errorf("name %q", got)
	}
	all := Options{
		NoROBFillHiding: true,
		FlushOldWindow:  true,
		NoOverlapScan:   true,
		NoTaint:         true,
		NoDispatchFloor: true,
	}
	if got := all.Name(); got != "no-robfill+flush-oldwin+no-overlap+no-taint+no-floor" {
		t.Errorf("name %q", got)
	}
}

// missStream builds an ALU stream with isolated long-latency loads at a
// fixed period, each at a fresh address so every one misses the L2.
func missStream(n, period int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{
			PC:    0x400000 + uint64(i%64)*4,
			Class: isa.IntALU, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: uint8(8 + i%32),
		}
		if period > 0 && i%period == 0 && i > 0 {
			out[i].Class = isa.Load
			out[i].Addr = 0x100000000 + uint64(i)*1024*1024
			out[i].Dst = uint8(8 + i%32)
		}
	}
	return out
}

func runToEnd(c *Core) {
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 50_000_000 {
			panic("core did not finish")
		}
	}
}

func TestNoROBFillHidingChargesMore(t *testing.T) {
	insts := missStream(4000, 200)
	full := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{}, nil)
	runToEnd(full)
	abl := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{NoROBFillHiding: true}, nil)
	runToEnd(abl)
	// Isolated misses arrive with a full dispatch headroom: the full
	// model hides up to ROB/width = 64 cycles per miss, the ablation none.
	if abl.LocalTime() <= full.LocalTime() {
		t.Fatalf("ablation time %d <= full model %d", abl.LocalTime(), full.LocalTime())
	}
}

func TestNoOverlapScanSerializesIndependentMisses(t *testing.T) {
	// Two independent long-latency loads back to back: the full model
	// overlaps them, the first-order ablation charges both.
	insts := missStream(2000, 0)
	insts[1000] = isa.Inst{PC: 0x400400, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 40}
	insts[1001] = isa.Inst{PC: 0x400404, Class: isa.Load,
		Addr: 0x20000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 41}
	full := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{}, nil)
	runToEnd(full)
	abl := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{NoOverlapScan: true}, nil)
	runToEnd(abl)
	if full.OverlapHidden == 0 {
		t.Fatal("full model hid nothing")
	}
	if abl.OverlapHidden != 0 {
		t.Fatalf("ablation hid %d events", abl.OverlapHidden)
	}
	if abl.LongLoadEvents <= full.LongLoadEvents {
		t.Fatalf("ablation long-load events %d <= full %d", abl.LongLoadEvents, full.LongLoadEvents)
	}
	if abl.LocalTime() <= full.LocalTime() {
		t.Fatalf("ablation time %d <= full %d: no MLP lost", abl.LocalTime(), full.LocalTime())
	}
}

func TestNoTaintOverlapsDependentLoads(t *testing.T) {
	// A dependent long-latency load pair: the full model serializes, the
	// NoTaint ablation wrongly overlaps.
	mk := func(opts Options) *Core {
		insts := missStream(2000, 0)
		insts[1000] = isa.Inst{PC: 0x400400, Class: isa.Load,
			Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 40}
		insts[1001] = isa.Inst{PC: 0x400404, Class: isa.Load,
			Addr: 0x20000000000, Src1: 40, Src2: isa.RegNone, Dst: 41}
		c := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", opts, nil)
		runToEnd(c)
		return c
	}
	full := mk(Options{})
	abl := mk(Options{NoTaint: true})
	if abl.LocalTime() >= full.LocalTime() {
		t.Fatalf("no-taint time %d >= full %d: dependent misses still serialize", abl.LocalTime(), full.LocalTime())
	}
}

func TestFlushOldWindowChangesTiming(t *testing.T) {
	// A fully serial chain with a serializing instruction shortly after
	// each long-latency load. The shift model remembers that the chain's
	// in-flight tail extends past the miss penalty, so the serializing
	// instruction pays a long drain; the flush ablation forgot the chain
	// at the miss event and only charges the tiny post-event occupancy.
	insts := missStream(8000, 400)
	for i := range insts {
		switch {
		case insts[i].Class == isa.IntALU:
			insts[i].Src1 = 10
			insts[i].Dst = 10
		}
		if i%400 == 5 && i > 5 {
			insts[i] = isa.Inst{PC: insts[i].PC,
				Class: isa.Serializing,
				Src1:  isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
		}
	}
	full := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{}, nil)
	runToEnd(full)
	abl := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{FlushOldWindow: true}, nil)
	runToEnd(abl)
	if full.SerializeEvents == 0 {
		t.Fatal("no serializing events in the stream")
	}
	if abl.LocalTime() >= full.LocalTime() {
		t.Fatalf("flush ablation time %d >= shift model %d: drain memory not lost", abl.LocalTime(), full.LocalTime())
	}
}

func TestShiftVersusEmptySemantics(t *testing.T) {
	// Unit-level check of the mechanism behind the FlushOldWindow
	// ablation: after tracking a deep serial chain, Shift ages it while
	// Empty forgets it entirely.
	m := config.Default(1)
	mkChain := func() *OldWindow {
		w := NewOldWindow(m.Core)
		for i := 0; i < 200; i++ {
			in := &isa.Inst{Class: isa.IntALU, Src1: 10, Src2: isa.RegNone, Dst: 10}
			w.Insert(in, 0, int64(i/4))
		}
		return w
	}
	shifted := mkChain()
	shifted.Shift(50)
	emptied := mkChain()
	emptied.Empty()
	if ds, de := shifted.DrainTime(0), emptied.DrainTime(0); ds <= de {
		t.Fatalf("shifted drain %d <= emptied drain %d", ds, de)
	}
	br := &isa.Inst{Class: isa.Branch, Src1: 10, Src2: isa.RegNone, Dst: isa.RegNone}
	if rs, re := shifted.BranchResolution(br, 0), emptied.BranchResolution(br, 0); rs <= re {
		t.Fatalf("shifted resolution %d <= emptied %d", rs, re)
	}
}

func TestNoDispatchFloorOverchargesBranches(t *testing.T) {
	// A long dependence chain feeding a mispredicted branch, where the
	// chain's producers dispatched long before the branch: the floored
	// model charges only the remaining chain, the pure-dataflow ablation
	// charges the whole chain depth.
	mk := func(opts Options) *Core {
		insts := make([]isa.Inst, 3000)
		for i := range insts {
			insts[i] = isa.Inst{
				PC:    0x400000 + uint64(i%64)*4,
				Class: isa.IntALU, Src1: 10, Src2: isa.RegNone, Dst: 10,
			}
			if i%250 == 249 {
				insts[i] = isa.Inst{
					PC:    0x400100,
					Class: isa.Branch, Taken: i%500 == 249, Target: 0x400000,
					Src1: 10, Src2: isa.RegNone, Dst: isa.RegNone,
				}
			}
		}
		c := buildOpts(insts, memhier.Perfect{ISide: true, DSide: true}, "bimodal", opts, nil)
		runToEnd(c)
		return c
	}
	full := mk(Options{})
	abl := mk(Options{NoDispatchFloor: true})
	if full.BranchEvents == 0 {
		t.Fatal("no mispredictions in the stream")
	}
	if abl.LocalTime() <= full.LocalTime() {
		t.Fatalf("no-floor time %d <= floored %d: resolution not overcharged", abl.LocalTime(), full.LocalTime())
	}
}

func TestMLPCapSerializesBeyondBudget(t *testing.T) {
	// Four independent long-latency loads in one window. With the
	// default budget they all overlap; with MaxOutstandingMisses=2 only
	// one extra load may overlap the head miss, so the rest serialize.
	mk := func(maxOut int) *Core {
		insts := missStream(2000, 0)
		for k := 0; k < 4; k++ {
			insts[1000+k] = isa.Inst{PC: 0x400400 + uint64(k)*4,
				Class: isa.Load, Addr: 0x10000000000 + uint64(k)*0x10000000000,
				Src1: isa.RegNone, Src2: isa.RegNone, Dst: uint8(40 + k)}
		}
		c := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{},
			func(m *config.Machine) { m.Core.MaxOutstandingMisses = maxOut })
		runToEnd(c)
		return c
	}
	wide := mk(32)
	narrow := mk(2)
	if narrow.OverlapLL >= wide.OverlapLL {
		t.Fatalf("narrow overlapped %d LL loads, wide %d", narrow.OverlapLL, wide.OverlapLL)
	}
	if narrow.LocalTime() <= wide.LocalTime() {
		t.Fatalf("narrow machine time %d <= wide %d: cap had no effect", narrow.LocalTime(), wide.LocalTime())
	}
}

func TestMLPCapOfOneDisablesLoadOverlap(t *testing.T) {
	insts := missStream(2000, 0)
	insts[1000] = isa.Inst{PC: 0x400400, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 40}
	insts[1001] = isa.Inst{PC: 0x400404, Class: isa.Load,
		Addr: 0x20000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 41}
	c := buildOpts(insts, memhier.Perfect{ISide: true}, "perfect", Options{},
		func(m *config.Machine) { m.Core.MaxOutstandingMisses = 1 })
	runToEnd(c)
	if c.OverlapLL != 0 {
		t.Fatalf("OverlapLL = %d with a single outstanding-miss slot", c.OverlapLL)
	}
	if c.LongLoadEvents != 2 {
		t.Fatalf("LongLoadEvents = %d, want 2 (both charged)", c.LongLoadEvents)
	}
}

func TestBranchResolutionPureAtLeastOne(t *testing.T) {
	m := config.Default(1)
	w := NewOldWindow(m.Core)
	br := &isa.Inst{Class: isa.Branch, Src1: isa.RegNone, Src2: isa.RegNone}
	if got := w.BranchResolutionPure(br); got < 1 {
		t.Fatalf("resolution %d < 1", got)
	}
}
