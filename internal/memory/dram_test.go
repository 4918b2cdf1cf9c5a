package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newFixed builds the fixed-latency DRAM as memhier does: one bank whose
// row hit and row miss both cost the access latency.
func newFixed(latencyCycles, lineSize, busBytes int) *Banked {
	return NewBanked(1, 2048, latencyCycles, latencyCycles, lineSize, busBytes)
}

func TestUncontendedLatency(t *testing.T) {
	d := newFixed(150, 64, 16)
	// 64B line over a 16B bus = 4 transfer cycles after the 150-cycle
	// access.
	if got := d.AccessLine(0, 0); got != 150+64/16 {
		t.Fatalf("uncontended access = %d, want 154", got)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	d := newFixed(150, 64, 16)
	d.AccessLine(0, 0) // occupies the bus until t=4
	if got := d.AccessLine(0, 0); got != 4+4+150 {
		t.Fatalf("second same-cycle access = %d, want 158 (4 queue + 4 transfer + 150)", got)
	}
	if d.StallTotal != 4 {
		t.Fatalf("StallTotal = %d, want 4", d.StallTotal)
	}
}

func TestNoQueueingWhenSpaced(t *testing.T) {
	d := newFixed(150, 64, 16)
	d.AccessLine(0, 0)
	if got := d.AccessLine(0, 100); got != 154 {
		t.Fatalf("spaced access = %d, want 154", got)
	}
	if d.StallTotal != 0 {
		t.Fatalf("StallTotal = %d, want 0", d.StallTotal)
	}
}

func TestWideBusShortTransfer(t *testing.T) {
	// The 3D-stacked configuration: 128-byte bus moves a line in 1 cycle.
	d := newFixed(125, 64, 128)
	if got := d.AccessLine(0, 0); got != 126 {
		t.Fatalf("3D access = %d, want 126", got)
	}
}

func TestPeakBandwidthBound(t *testing.T) {
	// Saturating the bus: N back-to-back requests take N*transfer cycles
	// of bus time, so the last one's latency grows linearly.
	d := newFixed(150, 64, 16)
	n := int64(100)
	var last int64
	for i := int64(0); i < n; i++ {
		last = d.AccessLine(uint64(i)*64, 0)
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
	d := newFixed(150, 64, 16)
	d.AccessLine(0, 0)
	if u := d.Utilization(8); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := d.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", u)
	}
}

func TestReset(t *testing.T) {
	d := newFixed(150, 64, 16)
	d.AccessLine(0, 0)
	d.ResetStats()
	if d.Requests != 0 || d.StallTotal != 0 || d.BusyTotal != 0 {
		t.Fatal("ResetStats left statistics")
	}
	if got := d.AccessLine(0, 0); got != 154 {
		t.Fatalf("access after reset = %d, want 154 (bus should be free)", got)
	}
}

// Property: latency is always at least the uncontended latency, and
// monotone queueing never loses bus time (busy time equals requests x
// transfer).
func TestQuickLatencyBounds(t *testing.T) {
	f := func(gaps []uint8) bool {
		d := newFixed(150, 64, 16)
		now := int64(0)
		for i, g := range gaps {
			now += int64(g)
			lat := d.AccessLine(uint64(i)*64, now)
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
	d := newFixed(10, 64, 256)
	if got := d.AccessLine(0, 0); got != 10+1 {
		t.Fatalf("uncontended access = %d, want 11 (one transfer cycle)", got)
	}
}

// draws is the differential test's source of choices: the fuzzer's bytes
// first, so that mutating them moves the head of the run directly, then a
// seeded generator for the rest.
type draws struct {
	data []byte
	rng  *rand.Rand
}

// n returns a choice in [0, max).
func (d *draws) n(max int) int {
	if len(d.data) > 0 && max <= 256 {
		b := d.data[0]
		d.data = d.data[1:]
		return int(b) % max
	}
	return d.rng.Intn(max)
}

// checkFixedMatchesReference builds the fixed-latency DRAM both ways (the
// one-bank Banked and the bus-only model it replaced, ref_test.go) and
// drives them through the same fetches. Issue times jitter around an
// advancing clock, as the cores of a multi-core run issue out of order,
// addresses move between rows, and ResetStats falls partway through, as
// after functional warm-up. Every latency, counter and utilization must be
// equal, not merely close: the bank is busy one transfer per access, so
// the data bus never queues a request and the bank queue is the bus queue.
func checkFixedMatchesReference(t *testing.T, d *draws) {
	latency := []int{0, 1, 10, 125, 150, 1 << 20}[d.n(6)]
	lineSize := []int{16, 64, 128}[d.n(3)]
	busBytes := 1 + d.n(256) // narrower and wider than the line
	got, ref := newFixed(latency, lineSize, busBytes), newRefDRAM(latency, lineSize, busBytes)
	const accesses = 300
	resetAt := d.n(accesses)
	clock := int64(0)
	for op := 0; op < accesses; op++ {
		if op == resetAt {
			got.ResetStats()
			ref.ResetStats()
			if d.n(2) == 0 {
				clock = 0
			}
		}
		clock += int64(d.n(64))
		now := max(clock-int64(d.n(256)), 0)
		addr := uint64(d.n(1<<20)) << 6
		if g, r := got.AccessLine(addr, now), ref.Access(now); g != r {
			t.Fatalf("latency %d, line %d, bus %d, op %d: AccessLine(%#x, %d) = %d, reference %d",
				latency, lineSize, busBytes, op, addr, now, g, r)
		}
		want := MemStats{Requests: ref.Requests, StallTotal: ref.StallTotal, BusyTotal: ref.BusyTotal}
		if g := got.Stats(); g != want {
			t.Fatalf("latency %d, line %d, bus %d, op %d: stats %+v, reference %+v",
				latency, lineSize, busBytes, op, g, want)
		}
		if gu, ru := got.Utilization(now), ref.Utilization(now); gu != ru {
			t.Fatalf("latency %d, line %d, bus %d, op %d: Utilization(%d) = %v, reference %v",
				latency, lineSize, busBytes, op, now, gu, ru)
		}
	}
}

func TestFixedDRAMMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		checkFixedMatchesReference(t, &draws{rng: rand.New(rand.NewSource(seed))})
	}
}

func FuzzFixedDRAMMatchesReference(f *testing.F) {
	// The head bytes pick latency, line size, bus width - 1 and the reset
	// point, in that order.
	f.Add(int64(1), []byte{4, 1, 15, 100})  // the paper's 150 cycles over a 16-byte bus
	f.Add(int64(2), []byte{3, 1, 127, 0})   // 3D-stacked: 125 cycles, one-cycle transfer
	f.Add(int64(3), []byte{0, 2, 0, 250})   // zero latency, 128-cycle transfer
	f.Add(int64(4), []byte{5, 0, 255, 150}) // largest latency, bus wider than the line
	f.Fuzz(func(t *testing.T, seed int64, head []byte) {
		if len(head) > 4096 {
			head = head[:4096]
		}
		checkFixedMatchesReference(t, &draws{data: head, rng: rand.New(rand.NewSource(seed))})
	})
}
