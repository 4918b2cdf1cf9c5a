package core

import (
	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-instruction window marks of Figure 3 (I_overlapped, br_overlapped,
// D_overlapped), packed into one byte of the flags ring.
const (
	flagIOv uint8 = 1 << iota
	flagBrOv
	flagDOv
	// flagBrChecked records that the branch predictor was already
	// consulted during an overlap scan (it must not be trained twice);
	// flagBrMisp is the recorded outcome.
	flagBrChecked
	flagBrMisp
)

// Core is one interval-simulated core: the mechanistic analytical model
// driven by the shared branch predictor and memory hierarchy simulators.
// It implements sim.Core, so the multi-core driver treats it exactly like
// the detailed model.
type Core struct {
	id     int
	cfg    config.Core
	opts   Options
	maxLL  int // outstanding long-latency load budget per overlap scan
	bp     *branch.Unit
	mem    *memhier.Hierarchy
	batch  trace.Stream
	syncer sim.Syncer

	// The window corresponds to the reorder buffer; instructions enter at
	// the tail from the functional simulator and are considered at the
	// head (Figure 2). It is a view into the hand-off ring: the stream
	// writes chunks directly into fbuf via NextBatch, and the window is
	// the first winLen of the filled entries — no per-instruction copy
	// between the functional and timing sides. flags carries the overlap
	// marks, parallel to fbuf.
	fbuf   []isa.Inst
	flags  []uint8
	recs   []uint32 // scan records, parallel to fbuf (see scanOverlap)
	fmask  int
	fhead  int // ring index of the window head
	winLen int // window occupancy (= ROB content)
	filled int // buffered instructions in the ring, including the window
	winCap int // logical window capacity (ROBSize)

	old *OldWindow

	coreTime   int64   // per-core simulated time
	oldBase    int64   // core time of the last old-window flush
	sinceLL    int64   // instructions dispatched since the last long-latency event
	dispCredit float64 // fractional dispatch budget carryover
	creditCap  float64 // 2*DecodeWidth, precomputed

	srcDone    bool
	retired    uint64
	done       bool
	finishTime int64

	// lastILine is the I-cache line of the previous fetch; consecutive
	// instructions on the same line need no new I-cache access (fetch is
	// line-granular).
	lastILine uint64

	// frontier is the absolute index (instructions retired before it) of
	// the first window entry no overlap scan has visited. Entries join the
	// window beyond it with cleared flags and it only advances, so every
	// entry between the head and the frontier carries flagIOv, every
	// branch there flagBrChecked, and none is serializing or a sync.
	frontier uint64

	// taintLines carries memory dependences during the overlap scan. The
	// scan keeps register taint in a 64-bit mask; taintRegs, indexed by
	// operand byte, holds it for ids the mask cannot (64 and above, which
	// only trace files carry). Its other slots, RegNone (0xFF) among them,
	// are never written, and none is until wideRegs is set by the first
	// such id — from then on every scan takes the general loop over the
	// whole window.
	taintRegs  [256]bool
	taintLines lineSet
	wideRegs   bool

	// refScan, when set, replaces scanOverlap: the differential tests run
	// the pre-frontier scan they keep as the reference through it.
	refScan func(c *Core, load *isa.Inst)

	// stack accumulates attributed penalty cycles for the CPI stack;
	// Stack() derives the base component as the residual.
	stack CPIStack

	// intervals histograms the instruction runs between miss events;
	// sinceEvent counts instructions dispatched since the last one.
	intervals  IntervalStats
	sinceEvent uint64

	// Statistics.
	Cycles          int64
	ICacheEvents    uint64
	BranchEvents    uint64
	LongLoadEvents  uint64
	SerializeEvents uint64
	OverlapHidden   uint64 // miss events hidden under long-latency loads
	OverlapLL       uint64 // long-latency loads overlapped during scans
	ScanBreaks      uint64 // scans ended early by a mispredicted branch
	WrongPathLines  uint64 // wrong-path I-lines fetched (WrongPathFetch option)
}

// New creates an interval core over the shared miss-event simulators.
func New(id int, cfg config.Core, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *Core {
	return NewWithOptions(id, cfg, Options{}, bp, mem, src, syncer)
}

// NewWithOptions creates an interval core with ablation options (the zero
// Options value is the full model).
func NewWithOptions(id int, cfg config.Core, opts Options, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *Core {
	if syncer == nil {
		syncer = sim.NullSyncer{}
	}
	maxLL := cfg.MaxOutstandingMisses
	if maxLL <= 0 {
		maxLL = 32
	}
	ring := fetchBatch
	if min := ceilPow2(2 * cfg.ROBSize); ring < min {
		ring = min
	}
	c := &Core{
		id:         id,
		cfg:        cfg,
		opts:       opts,
		maxLL:      maxLL,
		bp:         bp,
		mem:        mem,
		batch:      src,
		syncer:     syncer,
		fbuf:       make([]isa.Inst, ring),
		flags:      make([]uint8, ring),
		recs:       make([]uint32, ring),
		fmask:      ring - 1,
		winCap:     cfg.ROBSize,
		creditCap:  2 * float64(cfg.DecodeWidth),
		old:        NewOldWindow(cfg),
		taintLines: newLineSet(cfg.ROBSize),
	}
	return c
}

// fetchBatch is the functional→timing hand-off ring size: large enough to
// amortize the stream call, small enough to stay cache-resident. The ring
// is grown to hold at least two ROBs when the ROB is outsized.
const fetchBatch = 1024

// Retired implements sim.Core.
func (c *Core) Retired() uint64 { return c.retired }

// Done implements sim.Core.
func (c *Core) Done() bool { return c.done }

// FinishTime implements sim.Core.
func (c *Core) FinishTime() int64 { return c.finishTime }

// LocalTime returns the per-core simulated time.
func (c *Core) LocalTime() int64 { return c.coreTime }

// NextActive implements sim.TimeSkipper: the core does nothing until its
// local time catches global time.
func (c *Core) NextActive(now int64) int64 {
	if c.coreTime > now {
		return c.coreTime
	}
	return now
}

// MispredictRate returns the branch predictor's misprediction ratio so
// far (lookups include overlap-scan accesses, each dynamic branch exactly
// once).
func (c *Core) MispredictRate() float64 { return c.bp.MispredictRate() }

// IPC returns retired instructions per simulated cycle so far.
func (c *Core) IPC() float64 {
	if c.coreTime == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.coreTime)
}

// fill tops up the window from the functional simulator. Entries already
// buffered in the ring join the window with a one-byte flag reset; the
// stream is consulted only when the ring runs dry, one contiguous chunk at
// a time, writing straight into the ring.
func (c *Core) fill() {
	fg := c.flags
	for c.winLen < c.winCap {
		if c.filled == c.winLen {
			if c.srcDone {
				return
			}
			pos := (c.fhead + c.filled) & c.fmask
			span := len(c.fbuf) - c.filled
			if cont := len(c.fbuf) - pos; cont < span {
				span = cont
			}
			k := c.batch.NextBatch(c.fbuf[pos : pos+span])
			if k == 0 {
				c.srcDone = true
				return
			}
			c.filled += k
		}
		fg[(c.fhead+c.winLen)&(len(fg)-1)] = 0
		c.winLen++
	}
}

func (c *Core) head() *isa.Inst {
	return &c.fbuf[c.fhead]
}

// pop retires the window head. retired is thereby the absolute index of
// the head, which is what the scan frontier is measured against.
func (c *Core) pop() {
	c.fhead = (c.fhead + 1) & c.fmask
	c.winLen--
	c.filled--
	c.retired++
}

// Step implements sim.Core: the per-core body of the Figure 3 loop for one
// global cycle. The core is simulated only when its local time has caught
// up with global time; miss-event penalties push local time ahead, so the
// core then skips cycles — event-driven simulation at the core level.
func (c *Core) Step(now int64) {
	if c.done || c.coreTime != now {
		return
	}
	c.Cycles++
	if c.winLen < c.winCap {
		c.fill()
	}
	if c.winLen == 0 {
		if c.srcDone {
			c.done = true
			c.finishTime = c.coreTime
		} else {
			c.coreTime++
		}
		return
	}

	c.dispCredit += c.old.DispatchRate()
	if c.dispCredit > c.creditCap {
		c.dispCredit = c.creditCap
	}
	blocked := false
	fg := c.flags
	for c.coreTime == now && c.dispCredit >= 1 && c.winLen > 0 {
		if !c.dispatchHead() {
			// Blocked on synchronization: retry next cycle.
			c.dispCredit = 0
			blocked = true
			break
		}
		c.dispCredit--
		// Refill the freed window slot straight from the ring when an
		// instruction is already buffered (the common case); fall back to
		// fill for chunk refills and end-of-stream.
		if c.filled > c.winLen && c.winLen < c.winCap {
			fg[(c.fhead+c.winLen)&(len(fg)-1)] = 0
			c.winLen++
		} else if c.winLen < c.winCap {
			c.fill()
		}
	}
	if c.coreTime == now {
		c.coreTime++
		if blocked {
			c.stack.Sync++
		}
	}
}

// flushOld ages the old window by the time that passed since its base and
// re-bases dispatch times at the current core time. Every miss event calls
// this: penalties age the tracked dataflow, so short chains vanish (the
// interval-length effect) while loop-carried chains survive the event.
// Under the FlushOldWindow ablation the window is emptied instead, as in
// the paper's literal pseudocode.
func (c *Core) flushOld() {
	if c.opts.FlushOldWindow {
		c.old.Empty()
	} else {
		c.old.Shift(c.coreTime - c.oldBase)
	}
	c.oldBase = c.coreTime
}

// dispatchHead considers the instruction at the window head, charges any
// miss-event penalty to the core's simulated time, and dispatches it. It
// returns false when the instruction is a synchronization operation that
// must stall.
func (c *Core) dispatchHead() bool {
	in := c.head()
	fl := c.flags[c.fhead]

	if in.Class.IsSync() {
		dec := c.syncer.Sync(c.id, in, c.coreTime)
		if !dec.Proceed {
			return false
		}
		// Synchronization operations serialize like memory barriers:
		// the window drains before they execute, then the sync latency
		// applies.
		pen := c.old.DrainTime(c.coreTime-c.oldBase) + dec.Latency
		c.coreTime += pen
		c.stack.Sync += pen
		c.flushOld()
		c.pop()
		return true
	}

	var loadLat int64

	// Handle I-cache and I-TLB (lines 11–18). Fetch is line-granular:
	// only the first instruction on each line accesses the I-cache.
	if line := in.PC >> 6; fl&flagIOv == 0 && line != c.lastILine {
		c.lastILine = line
		ires := c.mem.Inst(c.id, in.PC, c.coreTime)
		if ires.Latency > 0 {
			c.coreTime += ires.Latency
			c.stack.ICache += ires.Latency
			c.flushOld()
			c.ICacheEvents++
			c.noteInterval(c.sinceEvent)
			c.sinceEvent = 0
		}
	}

	// Handle branch prediction (lines 20–28). A branch already checked
	// during an overlap scan reuses the recorded outcome instead of
	// training the predictor twice.
	if in.Class.IsBranch() && fl&flagBrOv == 0 {
		misp := fl&flagBrMisp != 0
		if fl&flagBrChecked == 0 {
			misp = c.bp.Predict(in)
		}
		if misp {
			var resolution int64
			if c.opts.NoDispatchFloor {
				resolution = c.old.BranchResolutionPure(in)
			} else {
				resolution = c.old.BranchResolution(in, c.coreTime-c.oldBase)
			}
			if c.opts.WrongPathFetch {
				c.wrongPathFetch(in, resolution)
			}
			pen := resolution + int64(c.cfg.FrontendDepth)
			c.coreTime += pen
			c.stack.Branch += pen
			c.flushOld()
			c.BranchEvents++
			c.noteInterval(c.sinceEvent)
			c.sinceEvent = 0
		}
	}

	// Handle loads and stores (lines 30–53).
	if in.Class == isa.Store || (in.Class == isa.Load && fl&flagDOv == 0) {
		res := c.mem.Data(c.id, in.Addr, in.Class == isa.Store, c.coreTime)
		if in.Class == isa.Load {
			if res.LongLatency() {
				switch {
				case c.opts.NoOverlapScan:
				case c.refScan != nil:
					c.refScan(c, in)
				default:
					c.scanOverlap(in)
				}
				pen := c.longLoadPenalty(res.Latency)
				c.coreTime += pen
				c.stack.LongLoad += pen
				c.flushOld()
				c.LongLoadEvents++
				c.noteInterval(c.sinceEvent)
				c.sinceEvent = 0
			} else {
				loadLat = int64(c.cfg.LatLoad) + res.Latency
			}
		}
	}

	// Handle serializing instructions (lines 55–59).
	if in.Class == isa.Serializing {
		pen := c.old.DrainTime(c.coreTime - c.oldBase)
		c.coreTime += pen
		c.stack.Serialize += pen
		c.flushOld()
		c.SerializeEvents++
		c.noteInterval(c.sinceEvent)
		c.sinceEvent = 0
	}

	// Dispatch: move the head into the old window, pull in a new
	// instruction at the tail (lines 61–65).
	c.old.Insert(in, loadLat, c.coreTime-c.oldBase)
	c.pop()
	c.sinceLL++
	c.sinceEvent++
	return true
}

// longLoadPenalty converts a long-latency miss latency into the dispatch
// penalty. The paper approximates the penalty by the full memory access
// latency and notes this overestimates it: "the processor may be
// dispatching instructions while the L2 miss is being resolved". The
// refinement here subtracts the ROB-fill hiding: once the load issues, the
// processor keeps dispatching until the reorder buffer fills, which takes
// up to ROBSize/width cycles. That headroom exists only when the window has
// been streaming since the last miss event — back-to-back misses (pointer
// chases) arrive with the ROB still full and are charged in full. The
// instructions retired since the last flush (the old-window occupancy,
// capped at the ROB size) measure exactly that headroom.
func (c *Core) longLoadPenalty(latency int64) int64 {
	if c.opts.NoROBFillHiding {
		c.sinceLL = 0
		return latency
	}
	headroom := c.sinceLL
	if headroom > int64(c.cfg.ROBSize) {
		headroom = int64(c.cfg.ROBSize)
	}
	p := latency - headroom/int64(c.cfg.DecodeWidth)
	if p <= 0 {
		// Fully absorbed by the reorder buffer: dispatch never stalled,
		// so the accumulated headroom survives for the next miss.
		return 0
	}
	c.sinceLL = 0
	return p
}

// wrongPathFetch models the front end running down the wrong path while a
// mispredicted branch resolves: sequential line-granular fetches starting
// at the path not taken, for as many lines as the fetch engine covers in
// the resolution time. The accesses touch the L1I (pollution or accidental
// prefetch) and consume fabric/DRAM bandwidth; they charge no core time —
// the resolution penalty already covers the shadow they run in.
func (c *Core) wrongPathFetch(br *isa.Inst, resolution int64) {
	// The wrong path is live from the fetch of the branch until the
	// redirect reaches fetch: resolution plus the front-end depth.
	shadow := resolution + int64(c.cfg.FrontendDepth)
	lines := shadow * int64(c.cfg.FetchWidth) / 16
	const maxWrongPathLines = 16
	if lines < 1 {
		lines = 1
	}
	if lines > maxWrongPathLines {
		lines = maxWrongPathLines
	}
	// The wrong path is the one the machine fetched: the fall-through
	// when the branch was actually taken, the (predicted/stale) target
	// otherwise.
	start := br.PC + 4
	if !br.Taken && br.Target != 0 {
		start = br.Target
	}
	line := start >> 6
	for k := int64(0); k < lines; k++ {
		c.mem.Inst(c.id, (line+uint64(k))<<6, c.coreTime)
		c.WrongPathLines++
	}
}

// A scan record is what a later scan needs of a window entry the frontier
// has passed, packed into one word when the entry is first visited: the
// three operand ids (six bits and recValid each; an absent or out-of-mask
// operand is not valid and reads as untainted), whether it is a load or a
// store, whether it is a load no scan has overlapped yet, and a six-bit hash
// of its data line that lets a load skip the exact store-line probe.
const (
	recValid                  = 1 << 6
	recSrc2                   = 7  // shift of the second source operand
	recDst                    = 14 // shift of the destination operand
	recLoadBit, recLoad       = 21, 1 << 21
	recStoreBit, recStore     = 22, 1 << 22
	recPendingBit, recPending = 23, 1 << 23
	recFilter                 = 24 // shift of the line hash
)

// scanRec builds the scan record of an instruction.
func scanRec(in *isa.Inst) uint32 {
	r := recOperand(in.Src1) | recOperand(in.Src2)<<recSrc2 | recOperand(in.Dst)<<recDst |
		uint32(lineFilter(in.Addr))<<recFilter
	switch in.Class {
	case isa.Load:
		r |= recLoad | recPending
	case isa.Store:
		r |= recStore
	}
	return r
}

// recOperand packs a register id for the scan record, without a branch:
// recValid is set for ids below 64, and the id bits of the others are never
// looked at.
func recOperand(id uint8) uint32 {
	return uint32(id)&63 | (uint32(id>>6)-1)>>25&recValid
}

// wideReg reports a register id the 64-bit taint mask cannot hold.
func wideReg(id uint8) bool { return id-64 < isa.RegNone-64 }

// lineFilter hashes the data line of addr to a bit of the line filter.
func lineFilter(addr uint64) uint64 { return (addr >> 6) * 0x9E3779B97F4A7C15 >> 58 }

// recSrcs and recDstBit expand a scan record's operands into register
// masks: the bits of its valid sources, the bit of its valid destination.
func recSrcs(r uint32) uint64 {
	return uint64(r>>6&1)<<(r&63) | uint64(r>>(recSrc2+6)&1)<<(r>>recSrc2&63)
}

func recDstBit(r uint32) uint64 { return uint64(r>>(recDst+6)&1) << (r >> recDst & 63) }

// allOnes returns ^0 for a non-zero x and 0 for zero, without a branch.
func allOnes(x uint64) uint64 { return uint64(int64(x|-x) >> 63) }

// scanQuiet carries the register taint through the scan records of window
// entries i to end-1 for as long as the record is all an entry needs. Two
// kinds of entry need more, and one rarely taken branch finds both: a load
// no register makes dependent that hashes to a tainted line or has not
// issued yet, and a dependent store. It returns the index of the first such
// entry (end if there is none) and the taint in front of it. It calls
// nothing, so its few live values stay in host registers.
func scanQuiet(recs []uint32, head, i, end int, mask, lines, taintOn uint64) (int, uint64) {
	for ; i < end; i++ {
		r := recs[(head+i)&(len(recs)-1)]
		dep := allOnes(mask & recSrcs(r) & taintOn)
		filter := lines >> (r >> recFilter & 63)
		if (uint64(r>>recLoadBit)&(filter|uint64(r>>recPendingBit))&^dep|uint64(r>>recStoreBit)&dep)&1 != 0 {
			break
		}
		dst := recDstBit(r)
		mask = mask&^dst | dst&dep
	}
	return i, mask
}

// scanVisited is the first phase of scanOverlap: it carries the taint in
// mask through window entries 1 to end-1, all before the frontier, and
// issues the loads among them that are still unmarked and independent now.
// It returns the register taint, the line filter and the outstanding-miss
// count (the head's slot included) as they stand at entry end.
func (c *Core) scanVisited(end int, mask uint64) (regs, lines uint64, outstanding int) {
	outstanding = 1
	// taintOn is zero under the NoTaint ablation, where nothing depends on
	// anything.
	taintOn := ^uint64(0)
	if c.opts.NoTaint {
		taintOn = 0
	}
	for i := 1; ; i++ {
		if i, mask = scanQuiet(c.recs, c.fhead, i, end, mask, lines, taintOn); i >= end {
			return mask, lines, outstanding
		}
		idx := (c.fhead + i) & c.fmask
		r, in := c.recs[idx], &c.fbuf[idx]
		dep := allOnes(mask & recSrcs(r) & taintOn)
		switch filter := uint64(1) << (r >> recFilter & 63); {
		case r&recStore != 0:
			c.taintLines.add(in.Addr >> 6)
			lines |= filter
		case lines&filter != 0 && c.taintLines.contains(in.Addr>>6):
			dep = ^uint64(0)
		case r&recPending != 0 && outstanding < c.maxLL:
			c.recs[idx] = r &^ recPending
			c.flags[idx] |= flagDOv
			c.OverlapHidden++
			res := c.mem.Data(c.id, in.Addr, false, c.coreTime)
			if res.LongLatency() {
				dep = ^uint64(0)
				c.OverlapLL++
				outstanding++
			}
		}
		dst := recDstBit(r)
		mask = mask&^dst | dst&dep
	}
}

// scanOverlap implements the second-order overlap modeling of lines 35–49:
// upon a long-latency load at the head, all instructions in the window are
// scanned head to tail; I-cache accesses, independent branches and
// independent loads execute underneath the miss and are marked so they
// charge no penalty when they reach the head. Dependence on the
// long-latency load is tracked through registers and stored-to memory
// lines; a dependent branch or load serializes and is not overlapped. The
// scan stops at serializing instructions. A mispredicted overlapped branch
// consumes part of the miss shadow — it resolves underneath the miss and
// the front end then refills along the correct path (which is exactly the
// functional-first stream), so scanning continues until the accumulated
// redirect costs exhaust the head miss's latency. The paper's pseudocode
// breaks at the first mispredicted branch; this refinement models the
// mechanism its Section 2 describes (the redirect is hidden as long as
// resolution plus refill fit in the shadow).
//
// Back-to-back misses scan nearly the same window, so the scan runs in two
// phases around the frontier. Before it, an entry's I-side and branch marks
// are already set and no scan can stop: all that is left is to carry the
// taint of this head load through the dataflow and to issue, in program
// order and within the outstanding-miss budget, the loads an earlier scan
// left unmarked that are independent now. That runs over the scan records
// alone and reads an instruction only to probe or issue its address. From
// the frontier on, every entry gets the full visit, once.
func (c *Core) scanOverlap(load *isa.Inst) {
	if c.wideRegs {
		c.taintRegs = [256]bool{}
	}
	c.taintLines.clear()
	// mask is the register taint of ids below 64 (the byte table holds the
	// others); lines has a bit set for the hash of every line in taintLines.
	var mask, lines uint64
	if id := load.Dst; id < 64 {
		mask = 1 << id
	} else if wideReg(id) {
		c.wideRegs = true
		c.taintRegs[id] = true
	}
	// The head miss holds one outstanding-miss slot; further independent
	// long-latency loads may overlap only while the hardware has slots
	// left (the paper: MLP is exposed "provided that a sufficient number
	// of outstanding long-latency loads are supported").
	outstanding := 1

	i := 1
	if !c.wideRegs && c.frontier > c.retired+1 {
		i = int(c.frontier - c.retired)
		mask, lines, outstanding = c.scanVisited(i, mask)
	}

	fb, fg, recs := c.fbuf, c.flags, c.recs
	noTaint := c.opts.NoTaint
	hidden := uint64(0)
	// Nothing before the frontier fetched, so the I-side continues from
	// the line of the last dispatched fetch, as it does for a scan that
	// starts at the head.
	scanILine := c.lastILine
scan:
	for ; i < c.winLen; i++ {
		idx := (c.fhead + i) & (len(fb) - 1)
		in := &fb[idx]
		fl0, r := fg[idx&(len(fg)-1)], recs[idx&(len(recs)-1)]
		fl := fl0

		if in.Class == isa.Serializing || in.Class.IsSync() {
			break
		}

		if fl&flagIOv == 0 {
			fl |= flagIOv
			if line := in.PC >> 6; line != scanILine {
				scanILine = line
				c.mem.Inst(c.id, in.PC, c.coreTime)
			}
			hidden++
			// First visit: record the entry for the scans to come. An
			// id beyond the mask, read or written, switches the core to
			// the general loop for good, which is what keeps the byte
			// table empty until then.
			r = scanRec(in)
			recs[idx&(len(recs)-1)] = r
			if wideReg(in.Src1) || wideReg(in.Src2) || wideReg(in.Dst) {
				c.wideRegs = true
			}
		}

		// Register taint comes from the mask through the record (an
		// absent operand has no bit there) and, once wide ids have been
		// seen, from the byte table, which is false below 64 and at
		// RegNone. The store-line set is consulted only for loads while
		// any store has been tainted.
		dependent := false
		if !noTaint {
			dependent = mask&recSrcs(r) != 0 || c.wideRegs && (c.taintRegs[in.Src1] || c.taintRegs[in.Src2])
			if !dependent && in.Class == isa.Load && lines != 0 {
				dependent = c.taintLines.contains(in.Addr >> 6)
			}
		}

		if in.Class.IsBranch() && fl&(flagBrChecked|flagBrOv) == 0 {
			fl |= flagBrChecked
			misp := c.bp.Predict(in)
			if misp {
				fl |= flagBrMisp
			}
			if !dependent {
				// The branch executes underneath the miss. A
				// misprediction redirects the front end: the
				// resolution and refill consume part of the miss
				// shadow; if the shadow is exhausted, nothing
				// further overlaps.
				fl |= flagBrOv
				hidden++
			}
			if misp {
				// Independent: fetch beyond the redirect is wrong-path
				// until the branch resolves, so the scan stops (paper,
				// Figure 3 line 40). Dependent on the head load: the
				// branch resolves only when the miss returns, everything
				// fetched beyond it was the wrong path, and the branch
				// itself is charged when it reaches the head. Either
				// way it has been visited: the frontier moves past it
				// and no later scan stops here.
				fg[idx&(len(fg)-1)] = fl
				c.ScanBreaks++
				i++
				break scan
			}
		}

		// An independent load executes underneath the miss (MLP). If it
		// is itself long-latency, instructions depending on it cannot
		// overlap the head miss: dependent long-latency loads serialize
		// their penalties, so the new miss taints its consumers. With
		// all outstanding-miss slots in use the load cannot issue and is
		// left unmarked — it will be charged when it reaches the head.
		taint := dependent
		if in.Class == isa.Load && !dependent && fl&flagDOv == 0 && outstanding < c.maxLL {
			fl |= flagDOv
			recs[idx&(len(recs)-1)] &^= recPending
			hidden++
			res := c.mem.Data(c.id, in.Addr, false, c.coreTime)
			if res.LongLatency() {
				taint = true
				c.OverlapLL++
				outstanding++
			}
		}
		if fl != fl0 {
			fg[idx&(len(fg)-1)] = fl
		}

		// Propagate taint through the dataflow.
		dst := recDstBit(r)
		mask &^= dst
		if taint {
			mask |= dst
		}
		if wideReg(in.Dst) {
			c.taintRegs[in.Dst] = taint
		}
		if in.Class == isa.Store && taint {
			c.taintLines.add(in.Addr >> 6)
			lines |= 1 << lineFilter(in.Addr)
		}
	}
	c.OverlapHidden += hidden
	// i is the first entry this scan did not visit: a serializing or sync
	// entry (never marked, so it stays the frontier until it retires), the
	// entry after a mispredicted branch, or the tail.
	c.frontier = c.retired + uint64(i)
}

var _ sim.Core = (*Core)(nil)
