package cache

import (
	"testing"

	"repro/internal/config"
)

func smallTLB() *TLB {
	return NewTLB(config.TLB{Entries: 8, Assoc: 2, PageSize: 4096, MissLatency: 30})
}

func TestTLBMissInstallsTranslation(t *testing.T) {
	tlb := smallTLB()
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB access hit")
	}
	if !tlb.Access(0x1000) {
		t.Fatal("second access missed: translation not installed")
	}
	if !tlb.Access(0x1FFF) {
		t.Fatal("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Fatal("different page hit")
	}
	if tlb.Hits() != 2 || tlb.Misses() != 2 {
		t.Fatalf("stats %d/%d, want 2 hits / 2 misses", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb := smallTLB()
	// Touch 16 pages; only 8 entries exist.
	for p := uint64(0); p < 16; p++ {
		tlb.Access(p * 4096)
	}
	hits := 0
	for p := uint64(0); p < 16; p++ {
		if tlb.Probe(p * 4096) {
			hits++
		}
	}
	if hits > 8 {
		t.Fatalf("%d pages resident in an 8-entry TLB", hits)
	}
}

func TestTLBReset(t *testing.T) {
	tlb := smallTLB()
	tlb.Access(0x1000)
	tlb.Reset()
	if tlb.Probe(0x1000) {
		t.Fatal("translation survived Reset")
	}
	if tlb.Hits() != 0 || tlb.Misses() != 0 {
		t.Fatal("stats survived Reset")
	}
}

func TestMSHRMergeAndExpiry(t *testing.T) {
	m := NewMSHR(2)
	if !m.Insert(0x100, 50, 0) {
		t.Fatal("first insert rejected")
	}
	if done, ok := m.Lookup(0x100, 10); !ok || done != 50 {
		t.Fatalf("lookup = (%d,%t), want (50,true)", done, ok)
	}
	// Secondary miss on the same line merges.
	if !m.Insert(0x100, 60, 10) {
		t.Fatal("merge rejected")
	}
	if done, _ := m.Lookup(0x100, 10); done != 50 {
		t.Fatalf("merged miss moved the completion to %d, want 50", done)
	}
	// Entry expires at its completion time.
	if _, ok := m.Lookup(0x100, 50); ok {
		t.Fatal("entry alive at completion time")
	}
}

func TestMSHRFullRejects(t *testing.T) {
	m := NewMSHR(2)
	m.Insert(0x100, 100, 0)
	m.Insert(0x200, 100, 0)
	if m.Insert(0x300, 100, 0) {
		t.Fatal("insert into full MSHR accepted")
	}
	// After expiry there is room again.
	if !m.Insert(0x300, 200, 150) {
		t.Fatal("insert after expiry rejected")
	}
}

func TestMSHROutstanding(t *testing.T) {
	m := NewMSHR(4)
	m.Insert(0x100, 100, 0)
	m.Insert(0x200, 150, 0)
	if n := m.Outstanding(0); n != 2 {
		t.Fatalf("outstanding = %d, want 2", n)
	}
	if n := m.Outstanding(120); n != 1 {
		t.Fatalf("outstanding after first expiry = %d, want 1", n)
	}
	m.Reset()
	if n := m.Outstanding(0); n != 0 {
		t.Fatalf("outstanding after reset = %d, want 0", n)
	}
}
