package memhier

import (
	"testing"

	"repro/internal/config"
)

func newH(cores int) *Hierarchy {
	return New(cores, config.Default(cores).Mem, Perfect{})
}

func TestInstHitAfterFill(t *testing.T) {
	h := newH(1)
	r1 := h.Inst(0, 0x400000, 0)
	if !r1.Miss {
		t.Fatal("cold I-fetch hit")
	}
	r2 := h.Inst(0, 0x400000, 100)
	if r2.Miss || r2.Latency != 0 {
		t.Fatalf("warm I-fetch = %+v, want L1 hit with 0 latency", r2)
	}
}

func TestInstMissLatencyComposition(t *testing.T) {
	h := newH(1)
	cfg := h.Config()
	r := h.Inst(0, 0x400000, 0)
	// Cold access: ITLB walk + L2 bus + L2 latency + DRAM.
	min := int64(cfg.ITLB.MissLatency + cfg.L2BusLatency + cfg.L2.Latency + cfg.DRAMLatency)
	if r.Latency < min {
		t.Fatalf("cold I-miss latency %d < %d", r.Latency, min)
	}
	if r.Kind != MemMiss || !r.TLBMiss {
		t.Fatalf("cold I-miss = %+v, want MemMiss+TLBMiss", r)
	}
	// Second miss in the same page but a different line: no TLB walk,
	// and the L2 now holds... nothing (L2 was missed and filled with
	// the first line only): a new line goes to DRAM again.
	r2 := h.Inst(0, 0x400040, 200)
	if r2.TLBMiss {
		t.Fatal("same-page access walked the TLB again")
	}
}

func TestDataL2HitPath(t *testing.T) {
	h := newH(1)
	addr := uint64(0x10000000000)
	h.Data(0, addr, false, 0) // cold: DRAM, fills L1+L2
	// Evict from L1 by filling conflicting lines, then re-access: L2 hit.
	cfg := h.Config()
	for i := 1; i <= cfg.L1D.Assoc+1; i++ {
		h.Data(0, addr+uint64(i*cfg.L1D.SizeBytes/cfg.L1D.Assoc), false, 10)
	}
	if h.L1D(0).Probe(addr) {
		t.Skip("conflict pattern did not evict the line; geometry changed")
	}
	r := h.Data(0, addr, false, 50_000)
	if r.Kind != L2Hit {
		t.Fatalf("kind = %v, want L2Hit", r.Kind)
	}
	want := int64(cfg.L2BusLatency + cfg.L2.Latency)
	if r.Latency != want {
		t.Fatalf("L2-hit latency = %d, want %d", r.Latency, want)
	}
}

func TestLongLatencyClassification(t *testing.T) {
	h := newH(1)
	r := h.Data(0, 0x10000000000, false, 0)
	if !r.LongLatency() || r.Kind != MemMiss {
		t.Fatalf("cold D-miss = %+v, want long-latency MemMiss", r)
	}
	r2 := h.Data(0, 0x10000000000, false, 1000)
	if r2.Miss || r2.LongLatency() {
		t.Fatalf("warm hit = %+v, want L1 hit", r2)
	}
}

func TestTLBMissAloneIsLongLatency(t *testing.T) {
	h := newH(1)
	addr := uint64(0x10000000000)
	h.Data(0, addr, false, 0)
	// Same line later: L1 hit; force a TLB-only miss by touching enough
	// pages to evict the translation while keeping the line... easier:
	// the paper's definition is tested directly on the Result.
	r := Result{Kind: L1Hit, TLBMiss: true}
	if !r.LongLatency() {
		t.Fatal("D-TLB miss not classified long-latency")
	}
}

func TestCoherenceMissBetweenCores(t *testing.T) {
	h := newH(2)
	addr := uint64(0x20000000000)
	h.Data(0, addr, true, 0) // core 0 writes: Modified
	r := h.Data(1, addr, false, 100)
	if r.Kind != CoherenceMiss || !r.LongLatency() {
		t.Fatalf("remote dirty read = %+v, want coherence miss", r)
	}
	cfg := h.Config()
	wantMin := int64(cfg.L2BusLatency + cfg.CacheToCacheLatency)
	if r.Latency < wantMin {
		t.Fatalf("coherence latency %d < %d", r.Latency, wantMin)
	}
}

func TestStoreInvalidatesRemoteL1(t *testing.T) {
	h := newH(2)
	addr := uint64(0x20000000000)
	h.Data(0, addr, false, 0)
	h.Data(1, addr, false, 10)
	if !h.L1D(0).Probe(addr) || !h.L1D(1).Probe(addr) {
		t.Fatal("line not shared in both L1s")
	}
	h.Data(0, addr, true, 20) // upgrade: invalidate core 1
	if h.L1D(1).Probe(addr) {
		t.Fatal("remote L1 copy survived an invalidating write")
	}
	if h.Coherence().State(1, addr) != 0 /* Invalid */ {
		t.Fatal("protocol state not invalidated")
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	h := newH(1)
	addr := uint64(0x30000000000)
	r1 := h.Data(0, addr, false, 0)
	// Evict from L1 so a second access at a nearby time is a miss again,
	// but keep it within the outstanding window: access a different word
	// of the same line after invalidating L1 only.
	h.L1D(0).Invalidate(addr)
	r2 := h.Data(0, addr+8, false, 1)
	if r2.Kind != L2Hit {
		t.Fatalf("merged secondary miss kind = %v, want L2Hit (merged)", r2.Kind)
	}
	if r2.Latency >= r1.Latency {
		t.Fatalf("merged miss latency %d not below primary %d", r2.Latency, r1.Latency)
	}
}

func TestPerfectSwitches(t *testing.T) {
	cfg := config.Default(1).Mem
	hI := New(1, cfg, Perfect{ISide: true})
	if r := hI.Inst(0, 0x400000, 0); r.Latency != 0 || r.Miss {
		t.Fatalf("perfect I-side returned %+v", r)
	}
	hD := New(1, cfg, Perfect{DSide: true})
	if r := hD.Data(0, 0x99999999, true, 0); r.Latency != 0 || r.Miss {
		t.Fatalf("perfect D-side returned %+v", r)
	}
	hL2 := New(1, cfg, Perfect{L2: true})
	r := hL2.Data(0, 0x10000000000, false, 0)
	if r.Kind != L2Hit {
		t.Fatalf("perfect-L2 cold miss kind = %v, want L2Hit", r.Kind)
	}
	if r.TLBMiss {
		t.Fatal("perfect-L2 experiment should have a perfect D-TLB")
	}
	want := int64(cfg.L2BusLatency + cfg.L2.Latency)
	if r.Latency != want {
		t.Fatalf("perfect-L2 latency = %d, want %d", r.Latency, want)
	}
}

func TestNoL2GoesStraightToDRAM(t *testing.T) {
	cfg := config.Stacked3D(1).Mem
	h := New(1, cfg, Perfect{})
	r := h.Data(0, 0x10000000000, false, 0)
	if r.Kind != MemMiss {
		t.Fatalf("kind = %v, want MemMiss (no L2)", r.Kind)
	}
	if h.L2() != nil {
		t.Fatal("L2 present in 3D configuration")
	}
	// 128-byte bus: transfer is 1 cycle, DRAM 125.
	wantMin := int64(cfg.L2BusLatency + cfg.L2.Latency + 125 + 1)
	if r.Latency < wantMin-int64(cfg.DTLB.MissLatency) {
		t.Fatalf("3D miss latency %d implausibly low", r.Latency)
	}
}

func TestResetStats(t *testing.T) {
	h := newH(2)
	h.Data(0, 0x10000000000, true, 0)
	h.Inst(1, 0x400000, 0)
	h.ResetStats()
	if st := h.Stats(); st.DataAccesses != 0 || st.InstAccesses != 0 || st.LongLatency != 0 {
		t.Fatal("hierarchy counters survived ResetStats")
	}
	if h.L1D(0).Misses != 0 || h.L1I(1).Misses != 0 {
		t.Fatal("cache counters survived ResetStats")
	}
	if !h.L1D(0).Probe(0x10000000000) {
		t.Fatal("ResetStats dropped cache contents")
	}
}

func TestDirtyL1VictimReachesL2(t *testing.T) {
	h := newH(1)
	cfg := h.Config()
	addr := uint64(0x40000000000)
	h.Data(0, addr, true, 0) // dirty in L1
	// Force eviction of addr from L1 via conflicting fills.
	stride := uint64(cfg.L1D.SizeBytes / cfg.L1D.Assoc)
	for i := 1; i <= cfg.L1D.Assoc+1; i++ {
		h.Data(0, addr+uint64(i)*stride, false, 10)
	}
	if h.L1D(0).Probe(addr) {
		t.Skip("victim still resident; geometry changed")
	}
	if !h.L2().Probe(addr) {
		t.Fatal("dirty victim not written back to L2")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		L1Hit: "L1", L2Hit: "L2", CoherenceMiss: "coherence", MemMiss: "mem",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	cfg := config.Default(1).Mem
	cfg.Prefetch = "nextline"
	cfg.PrefetchDegree = 2
	h := New(1, cfg, Perfect{})
	addr := uint64(0x50000000000)
	h.Data(0, addr, false, 0) // demand miss: prefetch addr+64, addr+128
	if h.Stats().Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if !h.L1D(0).Probe(addr + 64) {
		t.Fatal("next line not prefetched into L1D")
	}
	if !h.L1D(0).Probe(addr + 128) {
		t.Fatal("degree-2 line not prefetched")
	}
	// The prefetched line hits on demand.
	if r := h.Data(0, addr+64, false, 10); r.Miss {
		t.Fatalf("prefetched line missed: %+v", r)
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	h := newH(1)
	h.Data(0, 0x50000000000, false, 0)
	if h.Stats().Prefetches != 0 {
		t.Fatal("baseline configuration prefetched")
	}
	if h.L1D(0).Probe(0x50000000000 + 64) {
		t.Fatal("next line present without a prefetcher")
	}
}

func TestBusContentionBetweenCores(t *testing.T) {
	h := newH(2)
	// Both cores miss at the same cycle: the second transaction queues.
	r0 := h.Data(0, 0x60000000000, false, 0)
	r1 := h.Data(1, 0x61000000000, false, 0)
	bus := h.Fabric()
	if r1.Latency <= r0.Latency-int64(h.Config().DTLB.MissLatency) && bus.StallTotal == 0 {
		t.Fatal("no bus arbitration visible between same-cycle misses")
	}
	if bus.Transactions < 2 {
		t.Fatalf("bus transactions = %d", bus.Transactions)
	}
}

func TestMESIConfigSelectsVariant(t *testing.T) {
	cfg := config.Default(2).Mem
	cfg.Coherence = "mesi"
	h := New(2, cfg, Perfect{})
	addr := uint64(0x70000000000)
	h.Data(0, addr, true, 0) // Modified in core 0
	h.Data(1, addr, false, 10)
	// MESI: the supplier downgraded to Shared, not Owned.
	if got := h.Coherence().State(0, addr); got.String() != "S" {
		t.Fatalf("supplier state = %v, want S under MESI", got)
	}
}
