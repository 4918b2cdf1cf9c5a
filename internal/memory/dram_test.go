package memory

import (
	"testing"
	"testing/quick"
)

func TestUncontendedLatency(t *testing.T) {
	d := NewDRAM(150, 64, 16)
	// 64B line over a 16B bus = 4 transfer cycles after the 150-cycle
	// access.
	if got := d.Access(0); got != 150+64/16 {
		t.Fatalf("uncontended access = %d, want 154", got)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	d := NewDRAM(150, 64, 16)
	d.Access(0) // occupies the bus until t=4
	if got := d.Access(0); got != 4+4+150 {
		t.Fatalf("second same-cycle access = %d, want 158 (4 queue + 4 transfer + 150)", got)
	}
	if d.StallTotal != 4 {
		t.Fatalf("StallTotal = %d, want 4", d.StallTotal)
	}
}

func TestNoQueueingWhenSpaced(t *testing.T) {
	d := NewDRAM(150, 64, 16)
	d.Access(0)
	if got := d.Access(100); got != 154 {
		t.Fatalf("spaced access = %d, want 154", got)
	}
	if d.StallTotal != 0 {
		t.Fatalf("StallTotal = %d, want 0", d.StallTotal)
	}
}

func TestWideBusShortTransfer(t *testing.T) {
	// The 3D-stacked configuration: 128-byte bus moves a line in 1 cycle.
	d := NewDRAM(125, 64, 128)
	if got := d.Access(0); got != 126 {
		t.Fatalf("3D access = %d, want 126", got)
	}
}

func TestPeakBandwidthBound(t *testing.T) {
	// Saturating the bus: N back-to-back requests take N*transfer cycles
	// of bus time, so the last one's latency grows linearly.
	d := NewDRAM(150, 64, 16)
	n := int64(100)
	var last int64
	for i := int64(0); i < n; i++ {
		last = d.Access(0)
	}
	want := (n-1)*4 + 4 + 150
	if last != want {
		t.Fatalf("latency under saturation = %d, want %d", last, want)
	}
	if d.BusyTotal != n*4 {
		t.Fatalf("BusyTotal = %d, want %d", d.BusyTotal, n*4)
	}
}

func TestUtilization(t *testing.T) {
	d := NewDRAM(150, 64, 16)
	d.Access(0)
	if u := d.Utilization(8); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := d.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", u)
	}
}

func TestReset(t *testing.T) {
	d := NewDRAM(150, 64, 16)
	d.Access(0)
	d.ResetStats()
	if d.Requests != 0 || d.StallTotal != 0 || d.BusyTotal != 0 {
		t.Fatal("ResetStats left statistics")
	}
	if got := d.Access(0); got != 154 {
		t.Fatalf("access after reset = %d, want 154 (bus should be free)", got)
	}
}

// Property: latency is always at least the uncontended latency, and
// monotone queueing never loses bus time (busy time equals requests x
// transfer).
func TestQuickLatencyBounds(t *testing.T) {
	f := func(gaps []uint8) bool {
		d := NewDRAM(150, 64, 16)
		now := int64(0)
		for _, g := range gaps {
			now += int64(g)
			lat := d.Access(now)
			if lat < 154 {
				return false
			}
		}
		return d.BusyTotal == int64(len(gaps))*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumOneTransferCycle(t *testing.T) {
	// A bus wider than the line still takes one cycle.
	d := NewDRAM(10, 64, 256)
	if got := d.Access(0); got != 10+1 {
		t.Fatalf("uncontended access = %d, want 11 (one transfer cycle)", got)
	}
}
