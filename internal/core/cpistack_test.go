package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memhier"
)

func TestStackComponentsSumToTotalTime(t *testing.T) {
	insts := seqALU(3000)
	// Sprinkle in every event type.
	insts[500] = isa.Inst{PC: 0x400400, Class: isa.Load,
		Addr: 0x10000000000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 9}
	insts[1000] = isa.Inst{PC: 0x400800, Class: isa.Serializing}
	for i := 1500; i < 2500; i += 20 {
		insts[i] = isa.Inst{PC: 0x400100,
			Class: isa.Branch, Taken: i%40 == 0, Target: 0x400000}
	}
	c, _ := build(insts, memhier.Perfect{}, "bimodal")
	runCore(c)
	s := c.Stack()
	if s.Total() != c.LocalTime() {
		t.Fatalf("stack total %d != core time %d", s.Total(), c.LocalTime())
	}
	if s.Retired != 3000 {
		t.Fatalf("stack retired %d", s.Retired)
	}
	if s.Base <= 0 {
		t.Fatal("no base component")
	}
	if s.LongLoad <= 0 {
		t.Fatal("long-latency load not attributed")
	}
	if s.Serialize <= 0 {
		t.Fatal("serialize not attributed")
	}
	if s.Branch <= 0 {
		t.Fatal("branch penalties not attributed")
	}
}

func TestStackSyncComponent(t *testing.T) {
	insts := seqALU(200)
	insts[100] = isa.Inst{Class: isa.BarrierArrive}
	m := buildMachine()
	c := buildWith(m, insts, &gateSyncer{openAt: 400})
	runCore(c)
	s := c.Stack()
	if s.Sync < 250 {
		t.Fatalf("sync component %d, want most of the 400-cycle wait", s.Sync)
	}
	if s.Total() != c.LocalTime() {
		t.Fatalf("stack total %d != core time %d", s.Total(), c.LocalTime())
	}
}

func TestStackCPIAndString(t *testing.T) {
	c, _ := build(seqALU(1000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(c)
	s := c.Stack()
	if cpi := s.CPI(); cpi < 0.24 || cpi > 0.35 {
		t.Fatalf("CPI = %.3f, want ~0.25 (width-limited)", cpi)
	}
	out := s.String()
	for _, want := range []string{"base", "icache", "branch", "longload", "serialize", "sync", "CPI stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("stack string missing %q:\n%s", want, out)
		}
	}
	var zero CPIStack
	if zero.CPI() != 0 {
		t.Fatal("zero stack CPI nonzero")
	}
}
