package noc

import (
	"testing"
	"testing/quick"
)

func TestBusUncontendedHop(t *testing.T) {
	b := NewBus(4, 1)
	if got := b.Access(100); got != 4 {
		t.Fatalf("uncontended access = %d, want hop 4", got)
	}
	if b.StallTotal != 0 {
		t.Fatal("uncontended access queued")
	}
}

func TestBusQueueingUnderBurst(t *testing.T) {
	b := NewBus(4, 2)
	b.Access(0) // occupies cycles 0-1
	if got := b.Access(0); got != 2+4 {
		t.Fatalf("second same-cycle access = %d, want 6 (2 queue + 4 hop)", got)
	}
	if got := b.Access(0); got != 4+4 {
		t.Fatalf("third same-cycle access = %d, want 8", got)
	}
	if b.StallTotal != 2+4 {
		t.Fatalf("stall total = %d", b.StallTotal)
	}
}

func TestBusNoQueueWhenSpaced(t *testing.T) {
	b := NewBus(4, 2)
	b.Access(0)
	if got := b.Access(10); got != 4 {
		t.Fatalf("spaced access = %d, want 4", got)
	}
}

func TestBusMinimumOccupancy(t *testing.T) {
	b := NewBus(4, 0)
	b.Access(0)
	if b.BusyTotal != 1 {
		t.Fatalf("occupancy clamped to %d, want 1", b.BusyTotal)
	}
}

func TestBusUtilizationAndReset(t *testing.T) {
	b := NewBus(4, 2)
	b.Access(0)
	if u := b.Utilization(4); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if b.Utilization(0) != 0 {
		t.Fatal("zero-time utilization nonzero")
	}
	b.ResetStats()
	if b.Transactions != 0 || b.BusyTotal != 0 || b.StallTotal != 0 {
		t.Fatal("reset left stats")
	}
	if got := b.Access(0); got != 4 {
		t.Fatalf("access after reset = %d, want 4 (bus free)", got)
	}
}

// Property: latency is always at least the hop latency and busy time equals
// transactions x occupancy.
func TestQuickBusBounds(t *testing.T) {
	f := func(gaps []uint8) bool {
		b := NewBus(4, 2)
		now := int64(0)
		for _, g := range gaps {
			now += int64(g)
			if b.Access(now) < 4 {
				return false
			}
		}
		return b.BusyTotal == int64(len(gaps))*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
