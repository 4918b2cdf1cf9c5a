// Package config defines the machine configuration shared by the detailed
// out-of-order baseline and the interval simulator: core structures, cache
// and TLB geometry, DRAM timing and off-chip bandwidth.
//
// The defaults reproduce Table 1 of the paper: a 4-wide superscalar
// out-of-order core with a 256-entry ROB, a 12Kbit local branch predictor,
// 32KB 4-way L1 caches, a shared 4MB 8-way L2 with 12-cycle latency, a
// MOESI coherence protocol, 150-cycle DRAM and a 16-byte memory bus.
package config

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
)

// Core describes one processor core (Table 1, "Processor core").
type Core struct {
	ROBSize         int // reorder buffer entries
	IssueQueueSize  int // issue queue entries
	LSQSize         int // load-store queue entries
	StoreBufferSize int // store buffer entries

	DecodeWidth int // decode/dispatch/commit width
	IssueWidth  int // issue width
	FetchWidth  int // fetch width

	IntALUs       int // integer functional units
	LoadStoreFUs  int // load/store functional units
	FPUnits       int // floating-point functional units
	FetchQueue    int // fetch queue entries
	FrontendDepth int // front-end pipeline depth in stages

	// Execution latencies in cycles (Table 1: load 2, mul 3, fp 4,
	// div 20; single-cycle integer ALU).
	LatIntALU int
	LatMul    int
	LatDiv    int
	LatFP     int
	LatLoad   int // L1 hit (load-to-use) latency

	// MaxOutstandingMisses bounds the number of long-latency loads that
	// may overlap (the hardware's outstanding-miss capacity; the paper:
	// MLP is exposed "provided that a sufficient number of outstanding
	// long-latency loads are supported by the hardware"). Resolve writes
	// 32, matching the MSHR file, for zero.
	MaxOutstandingMisses int
}

// BranchPredictor describes the front-end predictor (Table 1: 12Kbit local
// predictor, 32-entry RAS, 8-way set-associative 2K-entry BTB).
type BranchPredictor struct {
	// Kind selects the direction predictor: "local" (Table 1; Resolve
	// writes it for ""), "gshare", "bimodal", "tournament", "tage" or
	// "perfect".
	Kind string
	// LocalHistoryEntries is the number of per-branch history registers.
	LocalHistoryEntries int
	// LocalHistoryBits is the history length per entry.
	LocalHistoryBits int
	// PHTEntries is the number of pattern-history counters.
	PHTEntries int
	// BTBEntries and BTBAssoc give the branch target buffer geometry.
	BTBEntries int
	BTBAssoc   int
	// RASEntries is the return address stack depth.
	RASEntries int
}

// tageTables is the number of tagged tables a TAGE predictor keeps beside
// its base table (branch.tageTables; TestUnitEntriesMatchConfig in
// internal/branch keeps the two equal).
const tageTables = 4

// Entries counts the entries branch.NewUnit allocates for b: the BTB, the
// RAS and the direction predictor's tables (tournament keeps a bimodal, a
// gshare and a chooser table of PHT size). b must be resolved.
func (b BranchPredictor) Entries() int {
	n := b.BTBEntries + b.RASEntries
	switch b.Kind {
	case "local":
		n += b.LocalHistoryEntries + b.PHTEntries
	case "gshare", "bimodal":
		n += b.PHTEntries
	case "tournament":
		n += 3 * b.PHTEntries
	case "tage":
		n += (1 + tageTables) * b.PHTEntries
	}
	return n
}

// Cache describes one cache level.
type Cache struct {
	SizeBytes int
	Assoc     int
	LineSize  int
	Latency   int // access latency in cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Cache) Sets() int { return c.SizeBytes / (c.Assoc * c.LineSize) }

// TLB describes a translation lookaside buffer.
type TLB struct {
	Entries  int
	Assoc    int
	PageSize int
	// MissLatency is the page-walk cost in cycles.
	MissLatency int
}

// Memory describes the shared memory system (Table 1, "Memory subsystem").
type Memory struct {
	L1I  Cache
	L1D  Cache
	L2   Cache
	ITLB TLB
	DTLB TLB

	// HasL2 disables the shared L2 when false (used by the 3D-stacking
	// case study, Figure 8).
	HasL2 bool

	// DRAMLatency is the main-memory access time in cycles.
	DRAMLatency int
	// BusBytes is the width of the off-chip memory bus in bytes per
	// cycle; a 64-byte line transfer occupies LineSize/BusBytes cycles.
	// This models peak off-chip bandwidth and queueing under contention.
	BusBytes int
	// L2BusLatency is the interconnect hop cost from a core to the
	// shared L2 / snoop bus.
	L2BusLatency int
	// CacheToCacheLatency is the extra cost of a coherence intervention
	// (dirty data supplied by a remote L1).
	CacheToCacheLatency int

	// Coherence selects the protocol: "moesi" (Table 1 baseline; Resolve
	// writes it for ""), "mesi" (four-state snooping ablation without
	// dirty sharing) or "directory" (a MESI home node, the scalable
	// alternative to bus snooping: it answers every transaction as
	// snooping MESI does, so it runs the same state machine and adds
	// DirectoryLatency to each miss).
	Coherence string
	// DirectoryLatency is the home-node lookup cost in cycles added to
	// every L1 miss when Coherence is "directory". Resolve writes 6 for
	// zero.
	DirectoryLatency int

	// Interconnect selects the on-chip fabric between the L1s and the
	// shared L2/memory hub: "bus" (Table 1 baseline, written for "": a
	// split-transaction snoop bus), "mesh" (2D mesh, XY routing) or "ring"
	// (bidirectional ring). Mesh and ring place the hub on the fabric
	// and charge per-hop latency and per-link queueing.
	Interconnect string
	// NoCHopLatency is the per-hop traversal latency in cycles for mesh
	// and ring fabrics (Resolve writes 1 for zero).
	NoCHopLatency int
	// NoCOccupancy is the per-link occupancy per transaction in cycles
	// for mesh and ring fabrics (Resolve writes 1 for zero).
	NoCOccupancy int

	// DRAMKind selects the main-memory configuration: "fixed" (written
	// for ""; the paper's DRAMLatency-cycle fixed latency behind a
	// finite-width bus: one bank whose row hits and row misses both cost
	// DRAMLatency) or "banked" (bank-parallel DRAM with open-page row
	// buffers: row hits are fast, row conflicts pay precharge+activate,
	// independent banks overlap).
	DRAMKind string
	// DRAMBanks is the bank count for the banked model (Resolve writes 8
	// for zero).
	DRAMBanks int
	// DRAMRowBytes is the row-buffer size in bytes for the banked model
	// (Resolve writes 2048 for zero).
	DRAMRowBytes int
	// DRAMRowHit is the access latency for a row-buffer hit in cycles
	// (Resolve writes 90 for zero; the fixed model's 150 corresponds to
	// the average case). A banked machine's may not exceed its row-miss
	// latency.
	DRAMRowHit int
	// DRAMRowMiss is the access latency on a row-buffer conflict
	// (precharge + activate + access; Resolve writes 180 for zero).
	DRAMRowMiss int

	// Prefetch selects the hardware prefetcher: "none" (the Table 1
	// baseline, written for ""), "nextline" (degree-PrefetchDegree
	// sequential prefetch into the L1D on demand misses) or "stride"
	// (region-based stride detection with a confidence threshold). Used
	// by the prefetcher ablation study.
	Prefetch string
	// PrefetchDegree is the number of lines a prefetch fetches ahead.
	// Resolve writes 1 for zero under nextline and 2 under stride; under
	// none it is unused and left as it is.
	PrefetchDegree int
}

// Machine is a complete simulated machine: N identical cores over a shared
// memory subsystem.
type Machine struct {
	Cores  int
	Core   Core
	Branch BranchPredictor
	Mem    Memory
}

// Bounds Resolve puts on a machine description. They are far above
// anything the paper's design space visits, and maxMachineEntries keeps
// every accepted machine small enough that its construction cannot exhaust
// the host's memory: about 60 MiB at the budget, where the largest machine
// a figure builds (scale16's 32-core default, 334 848 entries) takes 4 MiB.
const (
	maxCores      = 1 << 10
	maxEntries    = 1 << 14 // ROB, issue queue, LSQ, store buffer, fetch queue
	maxWidth      = 64      // pipeline widths, functional units, front-end depth
	maxLatency    = 1 << 20 // any latency, in cycles
	maxCacheLines = 1 << 22 // lines per cache (256 MiB of 64-byte lines)
	maxTable      = 1 << 24 // predictor and TLB tables, in entries

	// maxMachineEntries bounds the whole machine: Cores times each
	// core's L1 lines, TLB entries and predictor entries, plus the
	// shared L2's lines (see Machine.entries).
	maxMachineEntries = 1 << 22
)

// l1LineSize is the only L1 line size a machine may have, in bytes.
const l1LineSize = 64

// MaxDirectoryCores is the largest machine Coherence "directory" supports:
// the modelled home node keeps a 64-bit sharer vector per line.
const MaxDirectoryCores = 64

// nameFields are the fields of a Machine that select a model by name, each
// with the names it accepts, baseline first, in the order of nameValues.
var nameFields = [...]struct {
	field string
	names []string
}{
	{"Branch.Kind", []string{"local", "gshare", "bimodal", "tournament", "tage", "perfect"}},
	{"Mem.Coherence", []string{"moesi", "mesi", "directory"}},
	{"Mem.Interconnect", []string{"bus", "mesh", "ring"}},
	{"Mem.DRAMKind", []string{"fixed", "banked"}},
	{"Mem.Prefetch", []string{"none", "nextline", "stride"}},
}

// nameValues returns m's name fields in nameFields order.
func (m *Machine) nameValues() [len(nameFields)]*string {
	return [...]*string{&m.Branch.Kind, &m.Mem.Coherence, &m.Mem.Interconnect, &m.Mem.DRAMKind, &m.Mem.Prefetch}
}

// Names returns the names a name field accepts, baseline first: field is
// "Branch.Kind", "Mem.Coherence", "Mem.Interconnect", "Mem.DRAMKind" or
// "Mem.Prefetch". It returns nil for any other field. The slice is a copy.
func Names(field string) []string {
	for _, f := range nameFields {
		if f.field == field {
			return slices.Clone(f.names)
		}
	}
	return nil
}

// Resolve returns m with every choice written out, or an error naming the
// first field no simulator can run. An empty name becomes its field's
// baseline and a zero that selects a default becomes that default (each
// field's doc says which), so two descriptions of one simulated machine
// resolve equal, and a resolved machine resolves to itself. Simulators
// read only resolved machines: Default and Stacked3D return them, and
// descriptions from outside (simrun.Spec.Machine) are resolved before
// anything is built. The error names an unknown name; a structure size,
// width or functional-unit count that is not positive (the detailed core
// then never commits its first store, or never issues, and spins to
// MaxCycles) or is larger than the bounds above; a negative latency;
// cache, TLB or predictor geometry that is not the power-of-two shape the
// constructors index by and panic on; an L1 line size other than
// l1LineSize; a banked DRAM whose row hit costs more than its row miss; a
// directory machine of more than MaxDirectoryCores cores; or a machine of
// more than maxMachineEntries entries in all.
func (m Machine) Resolve() (Machine, error) {
	m.fill()
	for i, p := range m.nameValues() {
		if f := nameFields[i]; !slices.Contains(f.names, *p) {
			return m, fmt.Errorf("config: %s = %q, want %s", f.field, *p, strings.Join(f.names, ", "))
		}
	}
	return m, m.validate()
}

// prefetchDegree is the degree a prefetcher runs at when PrefetchDegree is
// zero.
var prefetchDegree = map[string]int{"nextline": 1, "stride": 2}

// fill writes the baseline for every empty name and the default for every
// zero that selects one.
func (m *Machine) fill() {
	for i, p := range m.nameValues() {
		*p = cmp.Or(*p, nameFields[i].names[0])
	}
	m.Core.MaxOutstandingMisses = cmp.Or(m.Core.MaxOutstandingMisses, 32)
	mem := &m.Mem
	mem.DirectoryLatency = cmp.Or(mem.DirectoryLatency, 6)
	mem.NoCHopLatency = cmp.Or(mem.NoCHopLatency, 1)
	mem.NoCOccupancy = cmp.Or(mem.NoCOccupancy, 1)
	mem.DRAMBanks = cmp.Or(mem.DRAMBanks, 8)
	mem.DRAMRowBytes = cmp.Or(mem.DRAMRowBytes, 2048)
	mem.DRAMRowHit = cmp.Or(mem.DRAMRowHit, 90)
	mem.DRAMRowMiss = cmp.Or(mem.DRAMRowMiss, 180)
	mem.PrefetchDegree = cmp.Or(mem.PrefetchDegree, prefetchDegree[mem.Prefetch])
}

// validate reports the first field of a filled machine, its names known,
// that no simulator can run (see Resolve).
func (m Machine) validate() error {
	// The checks name a field as prefix+name, joined only when one fails:
	// a valid machine costs no allocation (simrun resolves, and therefore
	// validates, the machine of every submission, cache hits included).
	var err error
	within := func(prefix, name string, v, lo, hi int) {
		if err == nil && (v < lo || v > hi) {
			err = fmt.Errorf("config: %s%s = %d, want %d..%d", prefix, name, v, lo, hi)
		}
	}
	pow2 := func(prefix, name string, v, hi int) {
		if err == nil && (v < 1 || v > hi || v&(v-1) != 0) {
			err = fmt.Errorf("config: %s%s = %d, want a power of two in 1..%d", prefix, name, v, hi)
		}
	}
	within("", "Cores", m.Cores, 1, maxCores)

	c := m.Core
	within("Core.", "ROBSize", c.ROBSize, 1, maxEntries)
	within("Core.", "IssueQueueSize", c.IssueQueueSize, 1, maxEntries)
	within("Core.", "LSQSize", c.LSQSize, 1, maxEntries)
	within("Core.", "StoreBufferSize", c.StoreBufferSize, 1, maxEntries)
	within("Core.", "FetchQueue", c.FetchQueue, 1, maxEntries)
	within("Core.", "DecodeWidth", c.DecodeWidth, 1, maxWidth)
	within("Core.", "IssueWidth", c.IssueWidth, 1, maxWidth)
	within("Core.", "FetchWidth", c.FetchWidth, 1, maxWidth)
	within("Core.", "IntALUs", c.IntALUs, 1, maxWidth)
	within("Core.", "LoadStoreFUs", c.LoadStoreFUs, 1, maxWidth)
	within("Core.", "FPUnits", c.FPUnits, 1, maxWidth)
	within("Core.", "FrontendDepth", c.FrontendDepth, 0, maxWidth)
	within("Core.", "LatIntALU", c.LatIntALU, 0, maxLatency)
	within("Core.", "LatMul", c.LatMul, 0, maxLatency)
	within("Core.", "LatDiv", c.LatDiv, 0, maxLatency)
	within("Core.", "LatFP", c.LatFP, 0, maxLatency)
	within("Core.", "LatLoad", c.LatLoad, 0, maxLatency)
	within("Core.", "MaxOutstandingMisses", c.MaxOutstandingMisses, 0, maxEntries)

	b := m.Branch
	pow2("Branch.", "LocalHistoryEntries", b.LocalHistoryEntries, maxTable)
	within("Branch.", "LocalHistoryBits", b.LocalHistoryBits, 0, 32)
	pow2("Branch.", "PHTEntries", b.PHTEntries, maxTable)
	within("Branch.", "BTBEntries", b.BTBEntries, 1, maxTable)
	within("Branch.", "BTBAssoc", b.BTBAssoc, 1, maxTable)
	pow2("Branch.", "BTBEntries/BTBAssoc", b.BTBEntries/max(b.BTBAssoc, 1), maxTable)
	within("Branch.", "RASEntries", b.RASEntries, 1, maxEntries)

	cache := func(prefix string, c Cache) {
		pow2(prefix, "LineSize", c.LineSize, 1<<12)
		within(prefix, "Assoc", c.Assoc, 1, maxCacheLines)
		within(prefix, "SizeBytes", c.SizeBytes, 1, maxCacheLines*max(c.LineSize, 1))
		within(prefix, "Latency", c.Latency, 0, maxLatency)
		if err == nil {
			pow2(prefix, "SizeBytes/(Assoc*LineSize)", c.Sets(), maxCacheLines)
		}
	}
	tlb := func(prefix string, t TLB) {
		pow2(prefix, "PageSize", t.PageSize, 1<<30)
		within(prefix, "Entries", t.Entries, 1, maxTable)
		within(prefix, "Assoc", t.Assoc, 1, maxTable)
		pow2(prefix, "Entries/Assoc", t.Entries/max(t.Assoc, 1), maxTable)
		within(prefix, "MissLatency", t.MissLatency, 0, maxLatency)
	}
	// Every core model, functional warm-up and the statistical profiler
	// fetch and track 64-byte L1 lines; a machine with other L1 lines
	// would skip or merge lines without saying so.
	l1 := func(prefix string, c Cache) {
		cache(prefix, c)
		if err == nil && c.LineSize != l1LineSize {
			err = fmt.Errorf("config: %sLineSize = %d, want %d (the core models fetch and track %d-byte L1 lines)", prefix, c.LineSize, l1LineSize, l1LineSize)
		}
	}
	mem := m.Mem
	l1("Mem.L1I.", mem.L1I)
	l1("Mem.L1D.", mem.L1D)
	if mem.HasL2 {
		cache("Mem.L2.", mem.L2)
	}
	tlb("Mem.ITLB.", mem.ITLB)
	tlb("Mem.DTLB.", mem.DTLB)
	within("Mem.", "DRAMLatency", mem.DRAMLatency, 0, maxLatency)
	within("Mem.", "BusBytes", mem.BusBytes, 1, 1<<16)
	within("Mem.", "L2BusLatency", mem.L2BusLatency, 0, maxLatency)
	within("Mem.", "CacheToCacheLatency", mem.CacheToCacheLatency, 0, maxLatency)
	within("Mem.", "DirectoryLatency", mem.DirectoryLatency, 0, maxLatency)
	within("Mem.", "NoCHopLatency", mem.NoCHopLatency, 0, maxLatency)
	within("Mem.", "NoCOccupancy", mem.NoCOccupancy, 0, maxLatency)
	pow2("Mem.", "DRAMBanks", mem.DRAMBanks, 1<<16)
	pow2("Mem.", "DRAMRowBytes", mem.DRAMRowBytes, 1<<30)
	within("Mem.", "DRAMRowHit", mem.DRAMRowHit, 0, maxLatency)
	within("Mem.", "DRAMRowMiss", mem.DRAMRowMiss, 0, maxLatency)
	// A banked row conflict holds the bank for the transfer plus the
	// miss-hit difference, which must not be negative.
	if err == nil && mem.DRAMKind == "banked" && mem.DRAMRowHit > mem.DRAMRowMiss {
		err = fmt.Errorf("config: Mem.DRAMRowHit = %d, want at most the row-miss latency %d", mem.DRAMRowHit, mem.DRAMRowMiss)
	}
	within("Mem.", "PrefetchDegree", mem.PrefetchDegree, 0, maxWidth)
	if err == nil && mem.Coherence == "directory" && m.Cores > MaxDirectoryCores {
		err = fmt.Errorf("config: Mem.Coherence directory supports at most %d cores, got Cores = %d", MaxDirectoryCores, m.Cores)
	}
	// With every structure within its bound, the sum cannot overflow.
	if err == nil && m.entries() > maxMachineEntries {
		err = fmt.Errorf("config: machine holds %d cache, TLB and predictor entries (Cores x per-core entries + L2 lines), want at most %d", m.entries(), maxMachineEntries)
	}
	return err
}

// entries counts the entries building m allocates: every core's L1I and
// L1D lines, ITLB and DTLB entries and branch predictor entries
// (BranchPredictor.Entries), plus the shared L2's lines. m's structures
// must be valid.
func (m Machine) entries() int {
	mem := m.Mem
	lines := func(c Cache) int { return c.SizeBytes / c.LineSize }
	perCore := lines(mem.L1I) + lines(mem.L1D) + mem.ITLB.Entries + mem.DTLB.Entries + m.Branch.Entries()
	n := m.Cores * perCore
	if mem.HasL2 {
		n += lines(mem.L2)
	}
	return n
}

// Default returns the baseline machine of Table 1 with the given number of
// cores, resolved. All simulated CMP architectures share the L2 cache.
func Default(cores int) Machine {
	m := Machine{
		Cores: cores,
		Core: Core{
			ROBSize:         256,
			IssueQueueSize:  128,
			LSQSize:         128,
			StoreBufferSize: 64,
			DecodeWidth:     4,
			IssueWidth:      6,
			FetchWidth:      8,
			IntALUs:         4,
			LoadStoreFUs:    4,
			FPUnits:         4,
			FetchQueue:      16,
			FrontendDepth:   7,
			LatIntALU:       1,
			LatMul:          3,
			LatDiv:          20,
			LatFP:           4,
			LatLoad:         2,
		},
		Branch: BranchPredictor{
			LocalHistoryEntries: 1024, // 1K entries x 12 bits = 12Kbit
			LocalHistoryBits:    12,
			PHTEntries:          4096,
			BTBEntries:          2048,
			BTBAssoc:            8,
			RASEntries:          32,
		},
		Mem: Memory{
			L1I:  Cache{SizeBytes: 32 << 10, Assoc: 4, LineSize: 64, Latency: 1},
			L1D:  Cache{SizeBytes: 32 << 10, Assoc: 4, LineSize: 64, Latency: 2},
			L2:   Cache{SizeBytes: 4 << 20, Assoc: 8, LineSize: 64, Latency: 12},
			ITLB: TLB{Entries: 64, Assoc: 4, PageSize: 8 << 10, MissLatency: 30},
			DTLB: TLB{Entries: 128, Assoc: 4, PageSize: 8 << 10, MissLatency: 30},

			HasL2:               true,
			DRAMLatency:         150,
			BusBytes:            16, // ~10.6 GB/s peak at the core clock
			L2BusLatency:        4,
			CacheToCacheLatency: 20,
		},
	}
	m.fill()
	return m
}

// Stacked3D returns the quad-core 3D-stacking configuration of the Figure 8
// case study: no L2 cache, 125-cycle stacked DRAM behind a 128-byte bus.
func Stacked3D(cores int) Machine {
	m := Default(cores)
	m.Mem.HasL2 = false
	m.Mem.DRAMLatency = 125
	m.Mem.BusBytes = 128
	return m
}

// ExecLatency returns the execution latency in cycles for an instruction
// class under this core configuration. Load latency is the L1-hit latency;
// cache misses add their miss latency on top, supplied by the memory
// hierarchy, not by this function.
func (c Core) ExecLatency(class isa.Class) int {
	switch class {
	case isa.IntMul:
		return c.LatMul
	case isa.IntDiv:
		return c.LatDiv
	case isa.FPOp:
		return c.LatFP
	case isa.Load:
		return c.LatLoad
	default:
		return c.LatIntALU
	}
}
