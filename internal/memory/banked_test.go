package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestBanked() *Banked {
	// 8 banks, 2KB rows, 90/180-cycle row hit/miss, 64B lines over a
	// 16B bus (4-cycle transfer).
	return NewBanked(8, 2048, 90, 180, 64, 16)
}

func TestBankedMapping(t *testing.T) {
	b := newTestBanked()
	// Addresses within one row map to the same bank and row.
	bank0, row0 := b.Map(0)
	bankX, rowX := b.Map(2047)
	if bank0 != bankX || row0 != rowX {
		t.Fatalf("same-row addresses split: (%d,%d) vs (%d,%d)", bank0, row0, bankX, rowX)
	}
	// The next row lands in the next bank (row:bank:column layout).
	bank1, _ := b.Map(2048)
	if bank1 != (bank0+1)%8 {
		t.Fatalf("next row bank %d, want %d", bank1, (bank0+1)%8)
	}
	// 8 rows later we wrap to the same bank, one row up.
	bank8, row8 := b.Map(8 * 2048)
	if bank8 != bank0 || row8 != row0+1 {
		t.Fatalf("wrap: bank %d row %d, want bank %d row %d", bank8, row8, bank0, row0+1)
	}
}

func TestBankedRowHitFasterThanMiss(t *testing.T) {
	b := newTestBanked()
	first := b.AccessLine(0x0, 0)
	second := b.AccessLine(0x40, 10_000) // same row, bank idle again
	if first != 180+4 {
		t.Fatalf("cold access latency %d, want 184", first)
	}
	if second != 90+4 {
		t.Fatalf("row-hit latency %d, want 94", second)
	}
	if b.RowHits != 1 || b.RowMisses != 1 {
		t.Fatalf("row hits/misses = %d/%d", b.RowHits, b.RowMisses)
	}
}

func TestBankedConflictReopensRow(t *testing.T) {
	b := newTestBanked()
	b.AccessLine(0x0, 0)
	// Same bank (bank 0), different row: 8 rows * 2048 bytes away.
	lat := b.AccessLine(8*2048, 10_000)
	if lat != 180+4 {
		t.Fatalf("row-conflict latency %d, want 184", lat)
	}
	// The conflicting row is now open.
	lat = b.AccessLine(8*2048+64, 20_000)
	if lat != 90+4 {
		t.Fatalf("reopened-row latency %d, want 94", lat)
	}
}

func TestBankedBusyBankQueues(t *testing.T) {
	b := newTestBanked()
	// Cold access: the row conflict occupies the bank for the
	// precharge+activate work plus the burst = (180-90)+4 = 94 cycles.
	b.AccessLine(0x0, 0)
	lat := b.AccessLine(0x40, 0)
	// Same bank, same row, issued at 0: waits 94 for the bank, then the
	// 90-cycle row hit; the data bus was busy [180,184) from the first
	// transfer, so the burst starts at 184+... second access bank phase
	// ends at 94+90 = 184, bus frees at 184: transfer [184,188).
	if lat != 94+90+4 {
		t.Fatalf("queued same-bank latency %d, want 188", lat)
	}
	if b.StallTotal != 94 {
		t.Fatalf("StallTotal %d, want 94", b.StallTotal)
	}
}

func TestBankedRowHitsPipeline(t *testing.T) {
	// Back-to-back row hits are limited by the burst rate (the bank
	// pipelines open-row column reads), not by the full access latency.
	b := newTestBanked()
	b.AccessLine(0x0, 0)
	now := int64(10_000) // drain
	l1 := b.AccessLine(0x40, now)
	l2 := b.AccessLine(0x80, now)
	if l1 != 94 {
		t.Fatalf("first row hit %d, want 94", l1)
	}
	// Second hit queues only behind the 4-cycle burst: 4+90+4 = 98.
	if l2 != 98 {
		t.Fatalf("pipelined row hit %d, want 98", l2)
	}
}

func TestBankedIndependentBanksOverlap(t *testing.T) {
	b := newTestBanked()
	l0 := b.AccessLine(0, 0)    // bank 0
	l1 := b.AccessLine(2048, 0) // bank 1: overlaps bank access
	if l0 != 184 {
		t.Fatalf("bank-0 latency %d", l0)
	}
	// Bank 1 access [0,180); bus busy [180,184) from bank 0, so the
	// transfer starts at 184: total 188.
	if l1 != 188 {
		t.Fatalf("bank-1 latency %d, want 188 (bus serialization only)", l1)
	}
}

func TestBankedStreamingIsMostlyRowHits(t *testing.T) {
	b := newTestBanked()
	now := int64(0)
	for i := 0; i < 320; i++ { // 10 rows of 32 lines
		lat := b.AccessLine(uint64(i)*64, now)
		now += lat
	}
	if hr := b.RowHitRate(); hr < 0.9 {
		t.Fatalf("streaming row-hit rate %.2f, want >= 0.9", hr)
	}
}

func TestBankedRandomTrafficHasRowConflicts(t *testing.T) {
	b := newTestBanked()
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1<<24)) &^ 63
		now += b.AccessLine(addr, now)
	}
	if hr := b.RowHitRate(); hr > 0.5 {
		t.Fatalf("random row-hit rate %.2f, want <= 0.5", hr)
	}
}

func TestBankedResetStats(t *testing.T) {
	b := newTestBanked()
	b.AccessLine(0, 0)
	b.ResetStats()
	if b.Requests != 0 || b.RowHits != 0 || b.RowMisses != 0 {
		t.Fatal("counters survive ResetStats")
	}
	// Row buffers must close: the same line is a row miss again.
	if lat := b.AccessLine(0, 0); lat != 184 {
		t.Fatalf("post-reset latency %d, want 184", lat)
	}
}

func TestBankedPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewBanked(3, 2048, 90, 180, 64, 16) },
		func() { NewBanked(8, 1000, 90, 180, 64, 16) },
		func() { NewBanked(0, 2048, 90, 180, 64, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: latency is always at least rowHit+transfer and, for an idle
// machine, at most rowMiss+transfer.
func TestBankedLatencyBoundsProperty(t *testing.T) {
	f := func(addrs [16]uint32) bool {
		b := newTestBanked()
		now := int64(0)
		for _, a := range addrs {
			lat := b.AccessLine(uint64(a)&^63, now)
			if lat < 94 {
				return false
			}
			now += lat + 1000 // fully drain: no queueing component
			if lat > 184 {
				return false
			}
		}
		return b.RowHits+b.RowMisses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization stays bounded and requests are conserved, for
// the banked model and for the one-bank fixed-latency model.
func TestMainMemoryInterfaceConservation(t *testing.T) {
	for _, m := range []*Banked{newFixed(150, 64, 16), newTestBanked()} {
		now := int64(0)
		for i := 0; i < 500; i++ {
			now += m.AccessLine(uint64(i*64), now)
		}
		if got := m.Stats().Requests; got != 500 {
			t.Errorf("%d banks: requests %d, want 500", len(m.banks), got)
		}
		if u := m.Utilization(now); u < 0 || u > 1 {
			t.Errorf("%d banks: utilization %v", len(m.banks), u)
		}
	}
}

func BenchmarkBankedAccess(b *testing.B) {
	d := newTestBanked()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.AccessLine(uint64(i)*64, int64(i))
	}
}
