package isa

import (
	"strings"
	"testing"
	"unsafe"
)

// TestInstSize pins the hand-off layout: 8-byte fields first, 32 bytes.
// A new field or a reordering that grows the struct taxes every generator
// store, ring copy and core load; it should be a decision, not an accident.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(isa.Inst{}) = %d, want 32", got)
	}
}

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		c                   Class
		branch, mem, syncOp bool
	}{
		{IntALU, false, false, false},
		{IntMul, false, false, false},
		{IntDiv, false, false, false},
		{FPOp, false, false, false},
		{Load, false, true, false},
		{Store, false, true, false},
		{Branch, true, false, false},
		{Call, true, false, false},
		{Return, true, false, false},
		{Serializing, false, false, false},
		{BarrierArrive, false, false, true},
		{LockAcquire, false, false, true},
		{LockRelease, false, false, true},
	}
	for _, tc := range cases {
		if tc.c.IsBranch() != tc.branch {
			t.Errorf("%v.IsBranch() = %t", tc.c, tc.c.IsBranch())
		}
		if tc.c.IsMem() != tc.mem {
			t.Errorf("%v.IsMem() = %t", tc.c, tc.c.IsMem())
		}
		if tc.c.IsSync() != tc.syncOp {
			t.Errorf("%v.IsSync() = %t", tc.c, tc.c.IsSync())
		}
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]Class{}
	for c := Class(0); int(c) < NumClasses; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has no mnemonic", c)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("classes %v and %v share mnemonic %q", prev, c, s)
		}
		seen[s] = c
	}
	if got := Class(200).String(); !strings.HasPrefix(got, "class(") {
		t.Errorf("out-of-range class string = %q", got)
	}
}

func TestInstOperandHelpers(t *testing.T) {
	in := Inst{Class: IntALU, Src1: 3, Src2: RegNone, Dst: 9}
	if !in.HasDst() {
		t.Error("HasDst false with Dst=9")
	}
	in.Dst = RegNone
	if in.HasDst() {
		t.Error("HasDst true with RegNone")
	}
}

func TestInstStringVariants(t *testing.T) {
	mem := Inst{Class: Load, PC: 0x40, Addr: 0x1000, Dst: 5, Src1: 2, Src2: RegNone}
	if s := mem.String(); !strings.Contains(s, "load") || !strings.Contains(s, "0x1000") {
		t.Errorf("mem string %q", s)
	}
	br := Inst{Class: Branch, PC: 0x44, Taken: true, Target: 0x80}
	if s := br.String(); !strings.Contains(s, "taken=true") {
		t.Errorf("branch string %q", s)
	}
	sy := Inst{Class: LockAcquire, SyncID: 7}
	if s := sy.String(); !strings.Contains(s, "id=7") {
		t.Errorf("sync string %q", s)
	}
	alu := Inst{Class: IntALU, Dst: 8}
	if s := alu.String(); !strings.Contains(s, "int") {
		t.Errorf("alu string %q", s)
	}
}
