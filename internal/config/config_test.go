package config

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestDefaultMatchesTable1(t *testing.T) {
	m := Default(4)
	if m.Cores != 4 {
		t.Fatalf("cores = %d", m.Cores)
	}
	c := m.Core
	if c.ROBSize != 256 || c.IssueQueueSize != 128 || c.LSQSize != 128 || c.StoreBufferSize != 64 {
		t.Error("window structures deviate from Table 1")
	}
	if c.DecodeWidth != 4 || c.IssueWidth != 6 || c.FetchWidth != 8 {
		t.Error("widths deviate from Table 1")
	}
	if c.IntALUs != 4 || c.LoadStoreFUs != 4 || c.FPUnits != 4 {
		t.Error("functional units deviate from Table 1")
	}
	if c.FetchQueue != 16 || c.FrontendDepth != 7 {
		t.Error("front end deviates from Table 1")
	}
	if c.LatLoad != 2 || c.LatMul != 3 || c.LatFP != 4 || c.LatDiv != 20 {
		t.Error("latencies deviate from Table 1")
	}
	b := m.Branch
	if b.LocalHistoryEntries*b.LocalHistoryBits != 12*1024 {
		t.Errorf("local predictor %d bits, want 12Kbit",
			b.LocalHistoryEntries*b.LocalHistoryBits)
	}
	if b.BTBEntries != 2048 || b.BTBAssoc != 8 || b.RASEntries != 32 {
		t.Error("BTB/RAS deviate from Table 1")
	}
	mem := m.Mem
	if mem.L1I.SizeBytes != 32<<10 || mem.L1I.Assoc != 4 || mem.L1I.LineSize != 64 {
		t.Error("L1I deviates from Table 1")
	}
	if mem.L2.SizeBytes != 4<<20 || mem.L2.Assoc != 8 || mem.L2.Latency != 12 {
		t.Error("L2 deviates from Table 1")
	}
	if mem.DRAMLatency != 150 || mem.BusBytes != 16 {
		t.Error("memory deviates from Table 1")
	}
	if !mem.HasL2 {
		t.Error("baseline must have an L2")
	}
	if b.Kind != "local" || mem.Coherence != "moesi" || mem.Interconnect != "bus" || mem.DRAMKind != "fixed" || mem.Prefetch != "none" {
		t.Errorf("baseline names %q %q %q %q %q, want local moesi bus fixed none", b.Kind, mem.Coherence, mem.Interconnect, mem.DRAMKind, mem.Prefetch)
	}
}

func TestStacked3D(t *testing.T) {
	m := Stacked3D(4)
	if m.Mem.HasL2 {
		t.Error("3D config has an L2")
	}
	if m.Mem.DRAMLatency != 125 || m.Mem.BusBytes != 128 {
		t.Error("3D DRAM parameters wrong")
	}
	if m.Cores != 4 {
		t.Error("core count not propagated")
	}
}

func TestCacheSets(t *testing.T) {
	c := Cache{SizeBytes: 32 << 10, Assoc: 4, LineSize: 64}
	if c.Sets() != 128 {
		t.Fatalf("sets = %d, want 128", c.Sets())
	}
}

func TestExecLatency(t *testing.T) {
	c := Default(1).Core
	cases := map[isa.Class]int{
		isa.IntALU: 1, isa.IntMul: 3, isa.IntDiv: 20, isa.FPOp: 4,
		isa.Load: 2, isa.Store: 1, isa.Branch: 1, isa.Serializing: 1,
	}
	for class, want := range cases {
		if got := c.ExecLatency(class); got != want {
			t.Errorf("ExecLatency(%v) = %d, want %d", class, got, want)
		}
	}
}

// TestValidateAcceptsBuiltInMachines: the built-in machines resolve, and
// to themselves: Default and Stacked3D are already resolved.
func TestValidateAcceptsBuiltInMachines(t *testing.T) {
	wideDirectory, wideSnoop := Default(MaxDirectoryCores), Default(MaxDirectoryCores+1)
	wideDirectory.Mem.Coherence = "directory"
	for _, m := range []Machine{Default(1), Default(8), Stacked3D(4), wideDirectory, wideSnoop} {
		r, err := m.Resolve()
		if err != nil {
			t.Errorf("%d-core built-in machine rejected: %v", m.Cores, err)
		}
		if r != m {
			t.Errorf("%d-core built-in machine resolves to %+v, want itself", m.Cores, r)
		}
	}
	m := Default(1)
	m.Mem.HasL2 = false
	m.Mem.L2 = Cache{} // unused without an L2
	m.Mem.DRAMKind, m.Mem.DRAMBanks = "banked", 32
	if _, err := m.Resolve(); err != nil {
		t.Errorf("L2-less banked machine rejected: %v", err)
	}
}

// TestResolveWritesEveryChoice: resolving writes the baseline for every
// empty name and the default for every zero that selects one, so a machine
// that leaves them out resolves equal to one that states them.
func TestResolveWritesEveryChoice(t *testing.T) {
	stated := Default(2)
	stated.Mem.Coherence, stated.Mem.Interconnect, stated.Mem.DRAMKind, stated.Mem.Prefetch = "moesi", "bus", "fixed", "none"
	stated.Core.MaxOutstandingMisses = 32
	stated.Mem.DirectoryLatency, stated.Mem.NoCHopLatency, stated.Mem.NoCOccupancy = 6, 1, 1
	stated.Mem.DRAMBanks, stated.Mem.DRAMRowBytes, stated.Mem.DRAMRowHit, stated.Mem.DRAMRowMiss = 8, 2048, 90, 180

	blank := stated
	blank.Branch.Kind, blank.Mem.Coherence, blank.Mem.Interconnect, blank.Mem.DRAMKind, blank.Mem.Prefetch = "", "", "", "", ""
	blank.Core.MaxOutstandingMisses = 0
	blank.Mem.DirectoryLatency, blank.Mem.NoCHopLatency, blank.Mem.NoCOccupancy = 0, 0, 0
	blank.Mem.DRAMBanks, blank.Mem.DRAMRowBytes, blank.Mem.DRAMRowHit, blank.Mem.DRAMRowMiss = 0, 0, 0, 0
	for name, m := range map[string]Machine{"stated": stated, "blank": blank} {
		r, err := m.Resolve()
		if err != nil || r != Default(2) {
			t.Errorf("%s machine resolves to %+v, %v; want Default(2)", name, r, err)
		}
	}
	for prefetch, degree := range map[string]int{"none": 0, "nextline": 1, "stride": 2} {
		m := Default(1)
		m.Mem.Prefetch = prefetch
		if r, err := m.Resolve(); err != nil || r.Mem.PrefetchDegree != degree {
			t.Errorf("%s prefetcher resolves to degree %d (%v), want %d", prefetch, r.Mem.PrefetchDegree, err, degree)
		}
	}
}

// TestNamesListEachFieldBaselineFirst: Names serves the name table, and
// the baseline it lists first is what Default runs.
func TestNamesListEachFieldBaselineFirst(t *testing.T) {
	m := Default(1)
	for field, baseline := range map[string]string{
		"Branch.Kind": m.Branch.Kind, "Mem.Coherence": m.Mem.Coherence, "Mem.Interconnect": m.Mem.Interconnect,
		"Mem.DRAMKind": m.Mem.DRAMKind, "Mem.Prefetch": m.Mem.Prefetch,
	} {
		if names := Names(field); len(names) < 2 || names[0] != baseline {
			t.Errorf("Names(%q) = %v, want %q first", field, names, baseline)
		}
	}
	if Names("Mem.DRAMLatency") != nil {
		t.Error("Names lists a field that is not a name field")
	}
	Names("Mem.Prefetch")[0] = "markov"
	if Names("Mem.Prefetch")[0] != "none" {
		t.Error("Names returns the table itself, not a copy")
	}
}

// TestValidateNamesTheField: every way a machine description can park or
// crash a simulator is rejected with the offending field in the message.
func TestValidateNamesTheField(t *testing.T) {
	cases := []struct {
		field   string
		breakIt func(*Machine)
	}{
		{"Cores", func(m *Machine) { m.Cores = 0 }},
		{"Core.ROBSize", func(m *Machine) { m.Core.ROBSize = 0 }},
		{"Core.ROBSize", func(m *Machine) { m.Core.ROBSize = 1 << 40 }},
		{"Core.IssueQueueSize", func(m *Machine) { m.Core.IssueQueueSize = -1 }},
		{"Core.LSQSize", func(m *Machine) { m.Core.LSQSize = 0 }},
		{"Core.StoreBufferSize", func(m *Machine) { m.Core.StoreBufferSize = 0 }},
		{"Core.FetchQueue", func(m *Machine) { m.Core.FetchQueue = 0 }},
		{"Core.DecodeWidth", func(m *Machine) { m.Core.DecodeWidth = 0 }},
		{"Core.IssueWidth", func(m *Machine) { m.Core.IssueWidth = 0 }},
		{"Core.FetchWidth", func(m *Machine) { m.Core.FetchWidth = 1 << 20 }},
		{"Core.IntALUs", func(m *Machine) { m.Core.IntALUs = 0 }},
		{"Core.LoadStoreFUs", func(m *Machine) { m.Core.LoadStoreFUs = -4 }},
		{"Core.FPUnits", func(m *Machine) { m.Core.FPUnits = 0 }},
		{"Core.FrontendDepth", func(m *Machine) { m.Core.FrontendDepth = 1 << 30 }},
		{"Core.LatLoad", func(m *Machine) { m.Core.LatLoad = -1 }},
		{"Branch.PHTEntries", func(m *Machine) { m.Branch.PHTEntries = 0 }},
		{"Branch.LocalHistoryEntries", func(m *Machine) { m.Branch.LocalHistoryEntries = 1000 }},
		{"Branch.BTBEntries/BTBAssoc", func(m *Machine) { m.Branch.BTBAssoc = 3 }},
		{"Branch.RASEntries", func(m *Machine) { m.Branch.RASEntries = 0 }},
		{"Mem.L1D.LineSize", func(m *Machine) { m.Mem.L1D.LineSize = 48 }},
		{"Mem.L1I.LineSize", func(m *Machine) { m.Mem.L1I.LineSize = 32 }},
		{"Mem.L1D.LineSize", func(m *Machine) { m.Mem.L1D.LineSize = 128 }},
		{"Mem.L1I.Assoc", func(m *Machine) { m.Mem.L1I.Assoc = 0 }},
		{"Mem.L1D.SizeBytes/(Assoc*LineSize)", func(m *Machine) { m.Mem.L1D.SizeBytes = 48 << 10 }},
		{"Mem.L2.SizeBytes", func(m *Machine) { m.Mem.L2.SizeBytes = 1 << 40 }},
		{"Mem.L2.SizeBytes/(Assoc*LineSize)", func(m *Machine) { m.Mem.L2.Assoc = 7 }},
		{"Mem.DTLB.PageSize", func(m *Machine) { m.Mem.DTLB.PageSize = 0 }},
		{"Mem.ITLB.Entries/Assoc", func(m *Machine) { m.Mem.ITLB.Entries = 96 }},
		{"Mem.BusBytes", func(m *Machine) { m.Mem.BusBytes = 0 }},
		{"Mem.DRAMBanks", func(m *Machine) { m.Mem.DRAMBanks = 6 }},
		{"Mem.DRAMRowBytes", func(m *Machine) { m.Mem.DRAMRowBytes = 3000 }},
		{"Mem.DRAMRowHit", func(m *Machine) { m.Mem.DRAMKind, m.Mem.DRAMRowHit, m.Mem.DRAMRowMiss = "banked", 500, 10 }},
		{"Mem.PrefetchDegree", func(m *Machine) { m.Mem.PrefetchDegree = 1 << 30 }},
		{"Mem.Coherence", func(m *Machine) { m.Mem.Coherence, m.Cores = "directory", MaxDirectoryCores+1 }},
		{"Branch.Kind", func(m *Machine) { m.Branch.Kind = "bogus" }},
		{"Mem.Coherence", func(m *Machine) { m.Mem.Coherence = "msi" }},
		{"Mem.Interconnect", func(m *Machine) { m.Mem.Interconnect = "torus" }},
		{"Mem.DRAMKind", func(m *Machine) { m.Mem.DRAMKind = "hbm" }},
		{"Mem.Prefetch", func(m *Machine) { m.Mem.Prefetch = "markov" }},
		{"Mem.Prefetch", func(m *Machine) { m.Mem.Prefetch = "Stride" }},
	}
	for _, tc := range cases {
		m := Default(2)
		tc.breakIt(&m)
		_, err := m.Resolve()
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("broken %s: Resolve() = %v, want an error naming the field", tc.field, err)
		}
	}
}

// TestResolveAllocatesNothing: simrun resolves the machine of every
// submission, cache hits included, so resolving a valid machine must not
// allocate.
func TestResolveAllocatesNothing(t *testing.T) {
	blank := Default(4)
	blank.Mem.Interconnect, blank.Mem.DRAMBanks = "", 0
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := blank.Resolve(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Resolve allocates %v times per call", avg)
	}
}
