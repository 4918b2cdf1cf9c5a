package memhier

import (
	"testing"

	"repro/internal/config"
)

// memCfg returns the Table 1 memory configuration for tweaking.
func memCfg() config.Memory { return config.Default(1).Mem }

func TestMeshFabricSelected(t *testing.T) {
	cfg := memCfg()
	cfg.Interconnect = "mesh"
	h := New(4, cfg, Perfect{})
	// Four cores and the hub fill a 3x2 grid: core 0 is two XY hops
	// from the hub at (1,1), where the bus is one hop from every core.
	if hops := h.Fabric().Hops(0); hops != 2 {
		t.Fatalf("core 0 is %d hops from the hub, want 2 on a 3x2 mesh", hops)
	}
	// Miss both L1 and L2: the fabric must see a transaction.
	h.Data(0, 0x100000, false, 0)
	if h.Fabric().Transactions == 0 {
		t.Fatal("no fabric transactions after an L1 miss")
	}
}

func TestRingFabricLatencyGrowsWithDistance(t *testing.T) {
	cfg := memCfg()
	cfg.Interconnect = "ring"
	cfg.NoCHopLatency = 3
	h := New(8, cfg, Perfect{})
	// Same cold line pattern from the closest and the farthest core;
	// use distinct addresses so both miss everywhere.
	farCore, nearCore := 4, 7 // hub is node 8; core 7 is 1 hop, core 4 is 4 hops
	rNear := h.Data(nearCore, 0x100000, false, 0)
	rFar := h.Data(farCore, 0x900000, false, 100000)
	if rFar.Latency <= rNear.Latency {
		t.Fatalf("far core latency %d <= near core %d", rFar.Latency, rNear.Latency)
	}
	if rFar.Latency-rNear.Latency != 3*3 { // 3 extra hops at 3 cycles
		t.Fatalf("latency delta %d, want 9", rFar.Latency-rNear.Latency)
	}
}

func TestDirectoryCoherenceClassifiesRemoteSupply(t *testing.T) {
	cfg := memCfg()
	cfg.Coherence = "directory"
	h := New(2, cfg, Perfect{})
	addr := uint64(0x4000)
	h.Data(0, addr, true, 0) // core 0 owns the line Modified
	res := h.Data(1, addr, false, 1000)
	if res.Kind != CoherenceMiss {
		t.Fatalf("kind = %v, want coherence miss", res.Kind)
	}
	if h.Coherence().Stats().Interventions != 1 {
		t.Fatalf("interventions = %d", h.Coherence().Stats().Interventions)
	}
}

func TestDirectoryLatencyAddsToMisses(t *testing.T) {
	base := memCfg()
	dir := base
	dir.Coherence = "directory"
	dir.DirectoryLatency = 40

	hb := New(2, base, Perfect{})
	hd := New(2, dir, Perfect{})
	// A cold L1+L2 miss from core 0, identical on both machines apart
	// from the home-node lookup.
	rb := hb.Data(0, 0x200000, false, 0)
	rd := hd.Data(0, 0x200000, false, 0)
	if rd.Latency-rb.Latency != 40 {
		t.Fatalf("directory adds %d cycles, want 40", rd.Latency-rb.Latency)
	}
}

func TestDirectoryLatencyDefaultsNonZero(t *testing.T) {
	cfg := memCfg()
	cfg.Coherence = "directory"
	h := New(2, cfg, Perfect{})
	if h.dirLat == 0 {
		t.Fatal("directory home-lookup latency defaulted to zero")
	}
}

func TestBankedDRAMSelected(t *testing.T) {
	cfg := memCfg()
	cfg.DRAMKind = "banked"
	h := New(1, cfg, Perfect{})
	// Two L2-missing accesses to the same DRAM row: the second is a row
	// hit, so cheaper.
	r1 := h.Data(0, 0x1000000, false, 0)
	r2 := h.Data(0, 0x1000000+64, false, 100000)
	if r2.Kind == L2Hit {
		t.Skip("second line already in L2 — geometry changed?")
	}
	if r2.Latency >= r1.Latency {
		t.Fatalf("row-hit access %d not cheaper than row miss %d", r2.Latency, r1.Latency)
	}
}

func TestStridePrefetcherCatchesStriddedStream(t *testing.T) {
	cfg := memCfg()
	cfg.Prefetch = "stride"
	cfg.PrefetchDegree = 4
	h := New(1, cfg, Perfect{})
	// Demand misses with a constant 256-byte stride. After two
	// confirmations the prefetcher should run ahead of the stream.
	stride := uint64(256)
	base := uint64(0x2000000)
	var now int64
	for i := 0; i < 64; i++ {
		h.Data(0, base+uint64(i)*stride, false, now)
		now += 1000
	}
	if h.Stats().Prefetches == 0 {
		t.Fatal("stride prefetcher never fired on a constant-stride stream")
	}
	// Steady state: most accesses beyond the training prefix hit the L1
	// because the prefetcher filled them.
	misses := h.L1D(0).Misses
	if misses > 16 {
		t.Fatalf("%d demand misses on a covered stride stream (prefetches=%d)", misses, h.Stats().Prefetches)
	}
}

func TestStridePrefetcherIgnoresRandomTraffic(t *testing.T) {
	cfg := memCfg()
	cfg.Prefetch = "stride"
	h := New(1, cfg, Perfect{})
	// A pseudo-random pointer chase: no stable stride per region.
	addr := uint64(0x40000)
	var now int64
	for i := 0; i < 200; i++ {
		addr = (addr*2862933555777941757 + 3037000493) % (1 << 26)
		h.Data(0, addr&^63, false, now)
		now += 1000
	}
	if h.Stats().Prefetches > 40 {
		t.Fatalf("stride prefetcher fired %d times on random traffic", h.Stats().Prefetches)
	}
}

func TestNextlinePrefetchStillWorks(t *testing.T) {
	cfg := memCfg()
	cfg.Prefetch = "nextline"
	cfg.PrefetchDegree = 2
	h := New(1, cfg, Perfect{})
	h.Data(0, 0x3000000, false, 0)
	if h.Stats().Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2", h.Stats().Prefetches)
	}
	// The prefetched next line hits.
	r := h.Data(0, 0x3000000+64, false, 1000)
	if r.Miss {
		t.Fatal("next line not prefetched")
	}
}

func TestResetStatsCoversNewComponents(t *testing.T) {
	cfg := memCfg()
	cfg.Interconnect = "mesh"
	cfg.DRAMKind = "banked"
	cfg.Coherence = "directory"
	cfg.Prefetch = "stride"
	h := New(2, cfg, Perfect{})
	h.Data(0, 0x100000, true, 0)
	h.Data(1, 0x100000, false, 100)
	h.ResetStats()
	if h.Fabric().Transactions != 0 {
		t.Error("fabric stats survive ResetStats")
	}
	if h.DRAM().Stats().Requests != 0 {
		t.Error("DRAM stats survive ResetStats")
	}
	if h.Coherence().Stats().Interventions != 0 {
		t.Error("coherence stats survive ResetStats")
	}
}

// TestDataAllocsNothing: after New the access paths never allocate — the
// coherence state, the stride table and the prefetch targets all live in
// storage sized at construction. One core with the stride prefetcher on
// strided and random traffic, and four cores under each protocol on a
// pattern that shares, upgrades, invalidates and evicts lines; the same
// calls under the frozen clock of functional warm-up and an advancing one.
func TestDataAllocsNothing(t *testing.T) {
	type shape struct {
		name  string
		cores int
		tweak func(*config.Memory)
	}
	shapes := []shape{{"1-core-stride", 1, func(m *config.Memory) { m.Prefetch = "stride" }}}
	for _, proto := range []string{"moesi", "mesi", "directory"} {
		shapes = append(shapes, shape{"4-cores-" + proto, 4, func(m *config.Memory) { m.Coherence = proto; m.Prefetch = "stride" }})
	}
	for _, s := range shapes {
		cfg := memCfg()
		s.tweak(&cfg)
		h := New(s.cores, cfg, Perfect{})
		step := uint64(0)
		round := func(clock int64) {
			for i := 0; i < 20_000; i++ {
				step++
				core := int(step) % s.cores
				now := clock * int64(step)
				// A stream every core walks (shared lines, prefetched),
				// private random lines far beyond the L1D (evictions),
				// and a few hot lines everybody writes (upgrades,
				// invalidations, interventions).
				h.Data(core, 0x1000_0000+step/4*64, step%7 == 0, now)
				h.Data(core, 0x8000_0000+uint64(core)<<28+step*0x9E3779B97F4A7C15>>40<<6, step%3 == 0, now)
				h.Data(core, 0x2000_0000+step%5*64, step%2 == 0, now)
				h.Inst(core, 0x40_0000+step*0x9E3779B97F4A7C15>>44<<6, now)
			}
		}
		round(0) // warm up
		for _, clock := range []int64{0, 3} {
			if avg := testing.AllocsPerRun(3, func() { round(clock) }); avg != 0 {
				t.Errorf("%s, clock step %d: %v allocations per 80k accesses", s.name, clock, avg)
			}
		}
		if s.cores > 1 {
			if tr := h.Coherence().Stats(); tr.Upgrades == 0 || tr.Interventions == 0 || tr.Invalidations == 0 {
				t.Errorf("%s: the pattern did not share: %+v", s.name, tr)
			}
			if msg := h.Coherence().CheckInvariants(); msg != "" {
				t.Errorf("%s: %s", s.name, msg)
			}
		}
		if h.Stats().Prefetches == 0 {
			t.Errorf("%s: the pattern never prefetched", s.name)
		}
	}
}
