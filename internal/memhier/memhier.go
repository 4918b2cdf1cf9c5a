// Package memhier assembles the full memory hierarchy of the simulated
// machine: per-core L1 instruction/data caches and TLBs, a shared L2, the
// MOESI coherence protocol, and DRAM behind a finite-bandwidth bus. It is
// the "memory hierarchy simulator" box of the paper's framework (Figure 2).
//
// Both core timing models call the same two entry points — Inst for the
// I-side and Data for the D-side — and receive the *additional* latency of
// the access beyond an L1 hit, together with a classification. A
// long-latency result (last-level miss, coherence miss or D-TLB miss) is
// precisely the event class that ends an interval in the analytical model.
//
// Perfect-structure switches reproduce the step-by-step accuracy
// experiments of Figure 4, where selected structures are assumed to always
// hit so that one model component can be evaluated at a time.
package memhier

import (
	"cmp"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/noc"
)

// AccessStats are the hierarchy's access counters. They are kept per core
// and aggregated by Stats.
type AccessStats struct {
	// InstAccesses and DataAccesses count I-side and D-side accesses.
	InstAccesses uint64
	DataAccesses uint64
	// LongLatency counts long-latency events in the interval-model sense
	// (last-level miss, coherence miss, D-TLB miss).
	LongLatency uint64
	// Prefetches counts issued prefetches; PrefetchFills those that went
	// to DRAM.
	Prefetches    uint64
	PrefetchFills uint64
}

func (a *AccessStats) add(b AccessStats) {
	a.InstAccesses += b.InstAccesses
	a.DataAccesses += b.DataAccesses
	a.LongLatency += b.LongLatency
	a.Prefetches += b.Prefetches
	a.PrefetchFills += b.PrefetchFills
}

// Kind classifies where an access was satisfied.
type Kind uint8

const (
	// L1Hit: satisfied by the private L1 (no extra latency).
	L1Hit Kind = iota
	// L2Hit: L1 miss satisfied by the shared L2.
	L2Hit
	// CoherenceMiss: satisfied by a remote core's cache (MOESI
	// intervention). Counts as long-latency in the paper's model.
	CoherenceMiss
	// MemMiss: satisfied by main memory. Long-latency.
	MemMiss
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case CoherenceMiss:
		return "coherence"
	case MemMiss:
		return "mem"
	default:
		return "kind?"
	}
}

// Result describes one memory access.
type Result struct {
	// Latency is the additional latency in cycles beyond an L1 hit.
	// Zero for an L1 hit with a TLB hit.
	Latency int64
	// Kind says where the data came from.
	Kind Kind
	// TLBMiss is true when the access also missed the TLB (the page
	// walk latency is included in Latency).
	TLBMiss bool
	// Miss is true when the access missed the L1.
	Miss bool
}

// LongLatency reports whether the access is a long-latency event in the
// sense of the interval model: a last-level cache miss, a coherence miss,
// or a D-TLB miss.
func (r Result) LongLatency() bool {
	return r.Kind == MemMiss || r.Kind == CoherenceMiss || r.TLBMiss
}

// Perfect selects structures that always hit, for the Figure 4 step-by-step
// experiments.
type Perfect struct {
	// ISide makes the L1 I-cache and I-TLB always hit.
	ISide bool
	// DSide makes the L1 D-cache and D-TLB always hit.
	DSide bool
	// L2 makes the L2 always hit for D-side traffic and the D-TLB
	// always hit: L1D misses cost exactly the L2 access, never DRAM.
	L2 bool
}

type coreCaches struct {
	l1i    *cache.Cache
	l1d    *cache.Cache
	itlb   *cache.TLB
	dtlb   *cache.TLB
	mshr   *cache.MSHR
	stride *stridePrefetcher
}

// Hierarchy is the complete shared memory system for an N-core machine.
// It is not safe for concurrent use: the driver calls it from one
// goroutine.
type Hierarchy struct {
	cfg     config.Memory
	perfect Perfect
	multi   bool // more than one core: coherence protocol active
	cores   []coreCaches
	l2      *cache.Cache
	coh     *coherence.Protocol
	fab     *noc.Fabric
	dram    *memory.Banked

	// What the access paths read of cfg, converted once.
	itlbMissLat, dtlbMissLat int64
	l2Lat, busLat, c2cLat    int64
	dirLat                   int64  // home-node lookup cost; zero for snooping protocols
	nextLines                int    // next-line prefetch degree; zero when off
	lineSize                 uint64 // L1D line size in bytes

	stats []AccessStats // one counter block per core
}

// newProtocol selects the coherence protocol by name, and returns the
// home-node lookup latency charged per protocol transaction (zero for the
// snooping protocols, whose lookup is the snoop broadcast already timed by
// the fabric).
func newProtocol(n int, cfg config.Memory) (*coherence.Protocol, int64) {
	// A line the protocol tracks is resident in some core's L1D.
	lines := n * cfg.L1D.SizeBytes / cfg.L1D.LineSize
	switch cfg.Coherence {
	case "mesi":
		return coherence.NewMESI(n, lines), 0
	case "directory":
		// A MESI home node answers every transaction as snooping MESI.
		return coherence.NewMESI(n, lines), int64(cmp.Or(cfg.DirectoryLatency, 6))
	default:
		return coherence.New(n, lines), 0
	}
}

// newFabric selects the on-chip interconnect by name.
func newFabric(n int, cfg config.Memory) *noc.Fabric {
	hop := cfg.NoCHopLatency
	if hop <= 0 {
		hop = 1
	}
	occ := cfg.NoCOccupancy
	if occ <= 0 {
		occ = 1
	}
	switch cfg.Interconnect {
	case "mesh":
		return noc.NewMesh(n, hop, occ)
	case "ring":
		return noc.NewRing(n, hop, occ)
	default:
		return noc.NewBus(n, cfg.L2BusLatency, 1)
	}
}

// newMainMemory builds the main memory DRAMKind names.
func newMainMemory(cfg config.Memory) *memory.Banked {
	if cfg.DRAMKind != "banked" {
		// Fixed latency is one bank, busy a transfer per access: the bus never queues.
		return memory.NewBanked(1, 2048, cfg.DRAMLatency, cfg.DRAMLatency, cfg.L2.LineSize, cfg.BusBytes)
	}
	return memory.NewBanked(cmp.Or(cfg.DRAMBanks, 8), uint64(cmp.Or(cfg.DRAMRowBytes, 2048)),
		cmp.Or(cfg.DRAMRowHit, config.DefaultDRAMRowHit), cmp.Or(cfg.DRAMRowMiss, config.DefaultDRAMRowMiss),
		cfg.L2.LineSize, cfg.BusBytes)
}

// New builds the hierarchy for n cores under the given configuration.
func New(n int, cfg config.Memory, perfect Perfect) *Hierarchy {
	coh, dirLat := newProtocol(n, cfg)
	h := &Hierarchy{
		cfg:     cfg,
		perfect: perfect,
		multi:   n > 1,
		cores:   make([]coreCaches, n),
		coh:     coh,
		fab:     newFabric(n, cfg),
		dram:    newMainMemory(cfg),
		stats:   make([]AccessStats, n),

		itlbMissLat: int64(cfg.ITLB.MissLatency),
		dtlbMissLat: int64(cfg.DTLB.MissLatency),
		l2Lat:       int64(cfg.L2.Latency),
		busLat:      int64(cfg.L2BusLatency),
		c2cLat:      int64(cfg.CacheToCacheLatency),
		dirLat:      dirLat,
		lineSize:    uint64(cfg.L1D.LineSize),
	}
	if cfg.Prefetch == "nextline" {
		h.nextLines = max(cfg.PrefetchDegree, 1)
	}
	if cfg.HasL2 {
		h.l2 = cache.New(cfg.L2)
	}
	for i := range h.cores {
		h.cores[i] = coreCaches{
			l1i:  cache.New(cfg.L1I),
			l1d:  cache.New(cfg.L1D),
			itlb: cache.NewTLB(cfg.ITLB),
			dtlb: cache.NewTLB(cfg.DTLB),
			mshr: cache.NewMSHR(32),
		}
		if cfg.Prefetch == "stride" {
			h.cores[i].stride = newStridePrefetcher(cfg.PrefetchDegree, cfg.L1D.LineSize)
		}
	}
	return h
}

// Config returns the memory configuration.
func (h *Hierarchy) Config() config.Memory { return h.cfg }

// Stats returns the access counters summed over all cores.
func (h *Hierarchy) Stats() AccessStats {
	var out AccessStats
	for i := range h.stats {
		out.add(h.stats[i])
	}
	return out
}

// CoreStats returns core's own access counters.
func (h *Hierarchy) CoreStats(core int) AccessStats { return h.stats[core] }

// DRAM exposes the main-memory model (for bandwidth statistics).
func (h *Hierarchy) DRAM() *memory.Banked { return h.dram }

// Coherence exposes the coherence protocol (for statistics and invariant
// checks).
func (h *Hierarchy) Coherence() *coherence.Protocol { return h.coh }

// Fabric exposes the on-chip interconnect (for statistics).
func (h *Hierarchy) Fabric() *noc.Fabric { return h.fab }

// L1D returns core's private data cache (for statistics).
func (h *Hierarchy) L1D(core int) *cache.Cache { return h.cores[core].l1d }

// L1I returns core's private instruction cache (for statistics).
func (h *Hierarchy) L1I(core int) *cache.Cache { return h.cores[core].l1i }

// L2 returns the shared cache, or nil when disabled.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// Inst performs an I-side access for core at pc at time now.
func (h *Hierarchy) Inst(core int, pc uint64, now int64) Result {
	h.stats[core].InstAccesses++
	if h.perfect.ISide {
		return Result{Kind: L1Hit}
	}
	c := &h.cores[core]
	var res Result
	if !c.itlb.Access(pc) {
		res.TLBMiss = true
		res.Latency += h.itlbMissLat
	}
	if c.l1i.Access(pc, false) {
		res.Kind = L1Hit
		return res
	}
	res.Miss = true
	line := c.l1i.LineAddr(pc)
	h.instMiss(core, line, now, &res)
	c.l1i.Fill(line, false)
	return res
}

// instMiss is the shared-structure section of an I-side L1 miss: the
// fabric transaction and the L2/DRAM access.
func (h *Hierarchy) instMiss(core int, line uint64, now int64, res *Result) {
	res.Latency += h.fab.AccessFrom(core, now)
	if h.fetchL2(line, now+res.Latency, res) {
		res.Kind = L2Hit
	} else {
		res.Kind = MemMiss
		h.stats[core].LongLatency++
	}
}

// Data performs a D-side access for core at addr at time now. write is
// true for stores.
func (h *Hierarchy) Data(core int, addr uint64, write bool, now int64) Result {
	h.stats[core].DataAccesses++
	if h.perfect.DSide {
		return Result{Kind: L1Hit}
	}
	c := &h.cores[core]
	var res Result
	if h.perfect.L2 {
		// D-TLB perfect under the perfect-L2 experiment.
	} else if !c.dtlb.Access(addr) {
		res.TLBMiss = true
		res.Latency += h.dtlbMissLat
	}
	line := c.l1d.LineAddr(addr)
	if c.stride != nil {
		// The stride table watches the whole access stream (hits keep
		// the stride confirmed), so a covered stream keeps the
		// prefetcher running ahead instead of retraining on every miss.
		for _, target := range c.stride.observe(line) {
			h.prefetchLine(core, c, target, now)
		}
	}
	if hit, wasDirty := c.l1d.AccessRW(addr, write); hit {
		// L1 hit. Reads never change protocol state; writes to an
		// already-dirty line are already Modified. Only clean write
		// hits on a multi-core machine need an upgrade.
		if write && !wasDirty && h.multi {
			cres := h.coh.Write(core, line)
			if cres.Invalidations > 0 {
				res.Latency += h.busLat + h.dirLat
			}
			h.dropRemoteCopies(core, line, cres.Invalidations)
		}
		res.Kind = L1Hit
		if res.TLBMiss {
			h.stats[core].LongLatency++
		}
		return res
	}
	res.Miss = true
	h.dataMiss(core, c, line, write, now, &res)
	return res
}

// dataMiss handles an L1D miss: MSHR merge, coherence transaction, fabric
// and L2/DRAM access, fill and next-line prefetch: everything below the
// private L1.
func (h *Hierarchy) dataMiss(core int, c *coreCaches, line uint64, write bool, now int64, res *Result) {
	// An outstanding miss on the same line means this access completes
	// with the primary miss.
	if completion, ok := c.mshr.Lookup(line, now); ok {
		res.Latency += max(completion-now, h.l2Lat)
		res.Kind = L2Hit // merged: no new transaction below
		h.fillL1D(core, c, line, write)
		if res.TLBMiss {
			h.stats[core].LongLatency++
		}
		return
	}

	var cres coherence.Result
	if h.multi {
		if write {
			cres = h.coh.Write(core, line)
		} else {
			cres = h.coh.Read(core, line)
		}
		h.dropRemoteCopies(core, line, cres.Invalidations)
	} else {
		cres = coherence.Result{Source: coherence.SrcBelow}
	}

	res.Latency += h.fab.AccessFrom(core, now)
	if h.multi {
		// Directory protocols pay the home-node lookup on every miss
		// transaction; snooping protocols resolve on the broadcast the
		// fabric already timed (dirLat is zero for them).
		res.Latency += h.dirLat
	}
	switch {
	case cres.Source == coherence.SrcRemote:
		res.Latency += h.c2cLat
		res.Kind = CoherenceMiss
		h.stats[core].LongLatency++
	case h.perfect.L2:
		res.Latency += h.l2Lat
		res.Kind = L2Hit
	case h.fetchL2(line, now+res.Latency, res):
		res.Kind = L2Hit
		if res.TLBMiss {
			h.stats[core].LongLatency++
		}
	default:
		res.Kind = MemMiss
		h.stats[core].LongLatency++
	}
	c.mshr.Insert(line, now+res.Latency, now)
	h.fillL1D(core, c, line, write)
	for d := 1; d <= h.nextLines; d++ {
		h.prefetchLine(core, c, line+uint64(d)*h.lineSize, now)
	}
}

// prefetchLine issues one prefetch of line into core's L1D after a demand
// miss. Prefetches run off the critical path: they occupy the fabric and
// DRAM bandwidth but add no latency to the demand access.
func (h *Hierarchy) prefetchLine(core int, c *coreCaches, line uint64, now int64) {
	if c.l1d.Probe(line) {
		return
	}
	if _, pending := c.mshr.Lookup(line, now); pending {
		return
	}
	h.stats[core].Prefetches++
	if h.multi {
		h.coh.Read(core, line)
	}
	var res Result
	t := h.fab.AccessFrom(core, now)
	if !h.fetchL2(line, now+t, &res) {
		// L2 miss: fetchL2 already charged DRAM bandwidth.
		h.stats[core].PrefetchFills++
	}
	c.mshr.Insert(line, now+t+res.Latency, now)
	h.fillL1D(core, c, line, false)
}

// fetchL2 accesses the shared L2 for line at time t, adding latency to res.
// It returns true on an L2 hit; on a miss (or with the L2 disabled) it also
// performs the DRAM access and, when present, the L2 fill.
func (h *Hierarchy) fetchL2(line uint64, t int64, res *Result) bool {
	if h.l2 == nil {
		res.Latency += h.dram.AccessLine(line, t)
		return false
	}
	res.Latency += h.l2Lat
	if h.l2.Access(line, false) {
		return true
	}
	res.Latency += h.dram.AccessLine(line, t+h.l2Lat)
	victim := h.l2.Fill(line, false)
	if victim.Valid && victim.Dirty {
		// Dirty L2 writeback occupies the memory bus but is off the
		// critical path of the demand access.
		h.dram.AccessLine(victim.Addr, t)
	}
	return false
}

// fillL1D installs line in core's L1D, propagating the eviction to the
// coherence protocol and writing dirty victims to the L2.
func (h *Hierarchy) fillL1D(core int, c *coreCaches, line uint64, write bool) {
	victim := c.l1d.Fill(line, write)
	if !victim.Valid {
		return
	}
	wb := victim.Dirty
	if h.multi && h.coh.Evict(core, victim.Addr) {
		wb = true
	}
	if wb {
		if h.l2 != nil {
			h.l2.Fill(victim.Addr, true)
		}
		// Without an L2 the writeback goes to DRAM; its bus occupancy
		// is folded into demand traffic statistics only.
	}
}

// dropRemoteCopies invalidates the line in every other core's L1D after the
// protocol reported invalidations, keeping structural caches consistent
// with protocol state.
func (h *Hierarchy) dropRemoteCopies(core int, line uint64, invalidations int) {
	if invalidations == 0 {
		return
	}
	for i := range h.cores {
		if i == core {
			continue
		}
		h.cores[i].l1d.Invalidate(line)
	}
}

// ResetStats clears all statistics counters in the hierarchy (caches, TLBs,
// DRAM, coherence) without touching contents. Called after functional
// warmup so measurements exclude cold-start misses.
func (h *Hierarchy) ResetStats() {
	for i := range h.cores {
		c := &h.cores[i]
		c.l1i.ResetStats()
		c.l1d.ResetStats()
		c.itlb.ResetStats()
		c.dtlb.ResetStats()
	}
	if h.l2 != nil {
		h.l2.ResetStats()
	}
	h.fab.ResetStats()
	h.dram.ResetStats()
	h.coh.ResetStats()
	for i := range h.stats {
		h.stats[i] = AccessStats{}
	}
}
