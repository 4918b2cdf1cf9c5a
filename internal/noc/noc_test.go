package noc

import (
	"testing"
	"testing/quick"
)

func TestMeshGeometry(t *testing.T) {
	cases := []struct {
		cores, w, h int
	}{
		{1, 2, 1},  // 2 nodes
		{2, 2, 2},  // 3 nodes in a 2x2
		{3, 2, 2},  // 4 nodes
		{4, 3, 2},  // 5 nodes
		{8, 3, 3},  // 9 nodes
		{15, 4, 4}, // 16 nodes
	}
	for _, c := range cases {
		m := NewMesh(c.cores, 1, 1)
		if len(m.free) != 4*c.w*c.h {
			t.Errorf("NewMesh(%d): %d links, want %d for a %dx%d grid",
				c.cores, len(m.free), 4*c.w*c.h, c.w, c.h)
		}
		if c.w*c.h < c.cores+1 {
			t.Errorf("NewMesh(%d): grid too small for cores+hub", c.cores)
		}
		// The width places every node: each route is the Manhattan
		// distance on a w-wide grid.
		hx, hy := c.cores%c.w, c.cores/c.w
		for core := 0; core < c.cores; core++ {
			dx, dy := hx-core%c.w, hy-core/c.w
			if want := max(dx, -dx) + max(dy, -dy); m.Hops(core) != want {
				t.Errorf("NewMesh(%d): Hops(%d)=%d, want %d on a %dx%d grid",
					c.cores, core, m.Hops(core), want, c.w, c.h)
			}
		}
	}
}

func TestMeshUncontendedLatencyIsManhattan(t *testing.T) {
	const perHop = 3
	m := NewMesh(8, perHop, 1) // 3x3, hub at node 8 = (2,2)
	for core := 0; core < 8; core++ {
		m.ResetStats()
		got := m.AccessFrom(core, 0)
		want := int64(m.Hops(core)) * perHop
		if got != want {
			t.Errorf("core %d: latency %d, want %d (hops=%d)", core, got, want, m.Hops(core))
		}
	}
}

func TestMeshHopsMatchManhattanDistance(t *testing.T) {
	const width = 4
	m := NewMesh(15, 1, 1) // 4x4, hub at node 15 = (3,3)
	hx, hy := 15%width, 15/width
	for core := 0; core < 15; core++ {
		cx, cy := core%width, core/width
		dx, dy := hx-cx, hy-cy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if m.Hops(core) != dx+dy {
			t.Errorf("core %d: Hops=%d, want %d", core, m.Hops(core), dx+dy)
		}
	}
}

func TestMeshContentionDelaysSecondTransfer(t *testing.T) {
	// 2x2 mesh, hub at node 3 = (1,1). Cores 1=(1,0) and 0=(0,0): core 0
	// routes east through node 1 then south; core 1 routes south on the
	// same (1,0)->(1,1) link. Issued at the same instant with occupancy 2,
	// the second user of the shared link must queue.
	m := NewMesh(3, 1, 2)
	l1 := m.AccessFrom(1, 0) // 1 hop: (1,0)->(1,1)
	if l1 != 1 {
		t.Fatalf("first transfer latency %d, want 1", l1)
	}
	l0 := m.AccessFrom(0, 0) // east hop free, then south link busy until t=2
	// Route: east (0,0)->(1,0) takes 1 cycle, arrives t=1; south link is
	// busy until t=2, header starts at 2, arrives 3.
	if l0 != 3 {
		t.Errorf("contended transfer latency %d, want 3", l0)
	}
	if m.StallTotal != 1 {
		t.Errorf("StallTotal=%d, want 1", m.StallTotal)
	}
}

func TestMeshStatsAccumulate(t *testing.T) {
	m := NewMesh(8, 1, 1)
	var hops uint64
	for core := 0; core < 8; core++ {
		m.AccessFrom(core, int64(core*100)) // spaced out: no contention
		hops += uint64(m.Hops(core))
	}
	if m.Transactions != 8 {
		t.Errorf("Transactions=%d, want 8", m.Transactions)
	}
	if m.StallTotal != 0 {
		t.Errorf("StallTotal=%d, want 0 for spaced transfers", m.StallTotal)
	}
	if m.BusyTotal != int64(hops) {
		t.Errorf("BusyTotal=%d, want %d", m.BusyTotal, hops)
	}
}

func TestRingShortestDirection(t *testing.T) {
	r := NewRing(7, 1, 1) // 8 nodes, hub at 7
	// Node 6 is 1 hop clockwise from hub; node 0 is 1 hop counter-clockwise
	// (0 -> 7 going backwards).
	if got := r.Hops(6); got != 1 {
		t.Errorf("Hops(6)=%d, want 1", got)
	}
	if got := r.Hops(0); got != 1 {
		t.Errorf("Hops(0)=%d, want 1", got)
	}
	if got := r.Hops(3); got != 4 {
		t.Errorf("Hops(3)=%d, want 4", got)
	}
}

func TestRingUncontendedLatency(t *testing.T) {
	const perHop = 2
	r := NewRing(7, perHop, 1)
	for core := 0; core < 7; core++ {
		got := r.AccessFrom(core, int64(core*50))
		want := int64(r.Hops(core)) * perHop
		if got != want {
			t.Errorf("core %d: latency %d, want %d", core, got, want)
		}
	}
}

func TestRingContention(t *testing.T) {
	r := NewRing(3, 1, 3) // 4 nodes, hub=3
	// Core 2 -> hub is 1 clockwise hop over link (2, cw). Core 1 -> hub is
	// 2 clockwise hops, the second over the same link.
	l2 := r.AccessFrom(2, 0)
	if l2 != 1 {
		t.Fatalf("first transfer latency %d, want 1", l2)
	}
	l1 := r.AccessFrom(1, 0)
	// Hop 1->2 free: start 0, arrive 1. Link (2,cw) busy until 3: start 3,
	// arrive 4.
	if l1 != 4 {
		t.Errorf("contended transfer latency %d, want 4", l1)
	}
}

func TestRingResetStats(t *testing.T) {
	r := NewRing(3, 1, 5)
	r.AccessFrom(0, 0)
	r.ResetStats()
	if r.Transactions != 0 || r.BusyTotal != 0 || r.StallTotal != 0 {
		t.Errorf("stats not cleared: %d transactions, %d busy, %d stall",
			r.Transactions, r.BusyTotal, r.StallTotal)
	}
	// Link occupancy must also clear: an immediate transfer sees no queue.
	if got := r.AccessFrom(0, 0); got != int64(r.Hops(0)) {
		t.Errorf("post-reset latency %d, want %d", got, r.Hops(0))
	}
}

func TestMeshPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh(0) did not panic")
		}
	}()
	NewMesh(0, 1, 1)
}

func TestRingPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0, 1, 1)
}

// Property: for any core and spacing, mesh latency is at least
// hops*perHop (queueing only adds), and with wide spacing it is exactly
// hops*perHop.
func TestMeshLatencyBoundsProperty(t *testing.T) {
	f := func(coresRaw uint8, coreRaw uint8, seq [12]uint8) bool {
		cores := int(coresRaw%15) + 1
		m := NewMesh(cores, 2, 1)
		// Contended phase: arbitrary issue times in a tight window.
		for _, s := range seq {
			core := int(coreRaw+s) % cores
			lat := m.AccessFrom(core, int64(s%4))
			if lat < int64(m.Hops(core))*2 {
				return false
			}
		}
		// Quiet phase: far in the future, must be exact.
		for c := 0; c < cores; c++ {
			lat := m.AccessFrom(c, int64(1_000_000+c*1000))
			if lat != int64(m.Hops(c))*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ring routes never exceed half the ring (shortest direction).
func TestRingShortestPathProperty(t *testing.T) {
	f := func(coresRaw uint8, coreRaw uint8) bool {
		cores := int(coresRaw%30) + 1
		r := NewRing(cores, 1, 1)
		core := int(coreRaw) % cores
		return r.Hops(core) <= (cores+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization never exceeds 1 when measured at or after the last
// completion time.
func TestFabricUtilizationBounded(t *testing.T) {
	fabrics := []*Fabric{NewMesh(8, 1, 2), NewRing(8, 1, 2)}
	for _, f := range fabrics {
		var last int64
		for i := 0; i < 1000; i++ {
			core := i % 8
			end := int64(i%7) + f.AccessFrom(core, int64(i%7))
			if end > last {
				last = end
			}
		}
		if u := f.Utilization(last); u < 0 || u > 1 {
			t.Errorf("%d-link fabric: utilization %v out of [0,1]", len(f.free), u)
		}
	}
}

func BenchmarkMeshAccess(b *testing.B) {
	m := NewMesh(15, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.AccessFrom(i%15, int64(i))
	}
}

func BenchmarkRingAccess(b *testing.B) {
	r := NewRing(15, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.AccessFrom(i%15, int64(i))
	}
}
