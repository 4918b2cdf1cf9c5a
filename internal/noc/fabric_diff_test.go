package noc

import (
	"math/rand"
	"testing"
)

// refFabric is what the differential test reads of a reference topology.
type refFabric interface {
	AccessFrom(core int, now int64) int64
	Utilization(now int64) float64
	ResetStats()
	counters() (transactions uint64, stall, busy int64)
}

func (b *refBus) counters() (uint64, int64, int64) {
	return b.Transactions, b.StallTotal, b.BusyTotal
}

func (s refStats) counters() (uint64, int64, int64) {
	return s.Transactions, s.StallTotal, s.BusyTotal
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

// checkFabricMatchesReference builds one topology both ways (the route-table
// Fabric and the per-topology reference it replaced) and drives them
// through the same (core, now) sequence. Issue times jitter around an
// advancing clock, as the cores of a multi-core run issue out of order,
// and ResetStats falls partway through, as after functional warm-up. Every
// latency, counter and utilization must be equal, not merely close.
func checkFabricMatchesReference(t *testing.T, d *draws) {
	kind := []string{"bus", "mesh", "ring"}[d.n(3)]
	cores, hop, occ := 1+d.n(64), d.n(5), d.n(5)
	var got *Fabric
	var ref refFabric
	hops := func(int) int { return 1 }
	switch kind {
	case "bus":
		got, ref = NewBus(cores, hop, occ), newRefBus(hop, occ)
	case "mesh":
		m := newRefMesh(cores, hop, occ)
		got, ref, hops = NewMesh(cores, hop, occ), m, m.Hops
	case "ring":
		r := newRefRing(cores, hop, occ)
		got, ref, hops = NewRing(cores, hop, occ), r, r.Hops
	}
	for c := 0; c < cores; c++ {
		if g, r := got.Hops(c), hops(c); g != r {
			t.Fatalf("%s(%d cores): Hops(%d) = %d, reference %d", kind, cores, c, g, r)
		}
	}
	const accesses = 200
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
		clock += int64(d.n(6))
		now := max(clock-int64(d.n(12)), 0)
		core := d.n(cores)
		g, r := got.AccessFrom(core, now), ref.AccessFrom(core, now)
		if g != r {
			t.Fatalf("%s(%d cores, hop %d, occ %d) op %d: AccessFrom(%d, %d) = %d, reference %d",
				kind, cores, hop, occ, op, core, now, g, r)
		}
		tx, stall, busy := ref.counters()
		if got.Transactions != tx || got.StallTotal != stall || got.BusyTotal != busy {
			t.Fatalf("%s(%d cores, hop %d, occ %d) op %d: counters (%d, %d, %d), reference (%d, %d, %d)",
				kind, cores, hop, occ, op, got.Transactions, got.StallTotal, got.BusyTotal, tx, stall, busy)
		}
		if gu, ru := got.Utilization(now), ref.Utilization(now); gu != ru {
			t.Fatalf("%s(%d cores, hop %d, occ %d) op %d: Utilization(%d) = %v, reference %v",
				kind, cores, hop, occ, op, now, gu, ru)
		}
	}
}

func TestFabricMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkFabricMatchesReference(t, &draws{rng: rand.New(rand.NewSource(seed))})
	}
}

func FuzzFabricMatchesReference(f *testing.F) {
	// The head bytes pick kind, cores-1, hop, occupancy and the reset
	// point, in that order.
	f.Add(int64(1), []byte{0, 7, 2, 1, 100})  // bus, 8 cores: every core on one link
	f.Add(int64(2), []byte{0, 0, 0, 0, 0})    // bus, 1 core, zero hop and occupancy
	f.Add(int64(3), []byte{1, 2, 1, 2, 50})   // mesh 2x2, contended shared link
	f.Add(int64(4), []byte{1, 63, 4, 4, 199}) // mesh 9x8, 64 cores, reset at the end
	f.Add(int64(5), []byte{2, 3, 1, 3, 10})   // ring of 4, contended clockwise link
	f.Add(int64(6), []byte{2, 63, 3, 0, 0})   // ring of 65, reset before the first access
	f.Add(int64(7), []byte{1, 0, 0, 4, 120})  // mesh, 1 core, zero hop
	f.Fuzz(func(t *testing.T, seed int64, head []byte) {
		if len(head) > 4096 {
			head = head[:4096]
		}
		checkFabricMatchesReference(t, &draws{data: head, rng: rand.New(rand.NewSource(seed))})
	})
}
