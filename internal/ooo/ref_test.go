// The reference model: the detailed core as it was before the event-driven
// rewrite (ISSUE 18), kept verbatim but for its names and a NextActive
// that never sleeps. It polls — every
// cycle it re-examines every issue-queue entry against the ROB — and its
// queues are plain slices, which makes it slow and easy to believe.
// TestCoreMatchesReference and FuzzCoreMatchesReference step it beside Core.

package ooo

import (
	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refNoProducer marks a source operand with no in-flight producer.
const refNoProducer = ^uint64(0)

type refFetchEntry struct {
	inst       isa.Inst
	readyAt    int64 // leaves the front-end pipeline at this cycle
	mispredict bool
}

type refROBEntry struct {
	inst     isa.Inst
	seq      uint64 // dispatch sequence number (dense within the ROB)
	issued   bool
	complete int64 // completion (writeback) time, valid once issued
	misp     bool  // mispredicted branch
	// Producer sequence numbers for each source operand, or refNoProducer.
	prod1, prod2 uint64
}

// refCore is one detailed out-of-order core. Create with New, then Step once
// per global cycle.
type refCore struct {
	id     int
	cfg    config.Core
	bp     *branch.Unit
	mem    *memhier.Hierarchy
	src    *trace.Buffered
	syncer sim.Syncer

	// Front end.
	fetchPending    []refFetchEntry
	fetchStallUntil int64
	lastFetchLine   uint64 // fetch is line-granular: one I-access per line
	redirects       int    // in-flight mispredicted branches blocking fetch
	srcDone         bool
	nextInst        isa.Inst
	nextValid       bool

	// Back end. The ROB is a FIFO slice; entry with sequence s lives at
	// index s-rob[0].seq because dispatch sequences are dense.
	rob      []refROBEntry
	iq       []uint64 // sequence numbers awaiting issue, program order
	lsqCount int

	dispatchSeq uint64
	// lastWriter maps each architectural register to the sequence of
	// its most recent in-flight writer (refNoProducer if none in flight).
	lastWriter [isa.NumRegs]uint64
	// storeLines counts in-flight (dispatched, uncommitted) stores per
	// cache line for store-to-load forwarding disambiguation.
	storeLines map[uint64]int

	// Store buffer: committed stores draining to memory through a small
	// number of ports (outstanding store misses overlap, as through
	// MSHRs in a real machine).
	storeBuf   []uint64
	sbPortFree [4]int64

	syncWait bool

	retired    uint64
	done       bool
	finishTime int64

	// Statistics.
	Cycles        int64
	DispatchStall int64
}

// newRefCore creates a detailed core. The branch unit and hierarchy are shared
// miss-event simulators, identical to those driving the interval model.
func newRefCore(id int, cfg config.Core, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *refCore {
	if syncer == nil {
		syncer = sim.NullSyncer{}
	}
	c := &refCore{
		id:     id,
		cfg:    cfg,
		bp:     bp,
		mem:    mem,
		src:    trace.NewBuffered(src, fetchBatch),
		syncer: syncer,
		rob:    make([]refROBEntry, 0, cfg.ROBSize),
		iq:     make([]uint64, 0, cfg.IssueQueueSize),
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = refNoProducer
	}
	c.storeLines = make(map[uint64]int)
	return c
}

// Retired implements sim.Core.
func (c *refCore) Retired() uint64 { return c.retired }

// Done implements sim.Core.
func (c *refCore) Done() bool { return c.done }

// FinishTime implements sim.Core.
func (c *refCore) FinishTime() int64 { return c.finishTime }

// NextActive implements sim.Core: the polling model never sleeps.
func (c *refCore) NextActive(now int64) int64 { return now }

// IPC returns retired instructions per cycle so far.
func (c *refCore) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.Cycles)
}

// Step implements sim.Core: simulate one cycle at global time now.
func (c *refCore) Step(now int64) {
	if c.done {
		return
	}
	c.Cycles++
	c.commit(now)
	c.drainStoreBuffer(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)

	if c.srcDone && !c.nextValid && len(c.fetchPending) == 0 &&
		len(c.rob) == 0 && len(c.storeBuf) == 0 {
		c.done = true
		c.finishTime = now
	}
}

// entryBySeq returns the ROB entry with sequence s, or nil if it has
// already committed.
func (c *refCore) entryBySeq(s uint64) *refROBEntry {
	if len(c.rob) == 0 || s < c.rob[0].seq {
		return nil
	}
	return &c.rob[s-c.rob[0].seq]
}

// peek pulls the next stream instruction into the lookahead slot (the
// buffered reader refills from the stream one chunk at a time).
func (c *refCore) peek() bool {
	if c.nextValid {
		return true
	}
	if c.srcDone {
		return false
	}
	in, ok := c.src.Next()
	if !ok {
		c.srcDone = true
		return false
	}
	c.nextInst = in
	c.nextValid = true
	return true
}

// fetch brings up to FetchWidth instructions into the front-end pipeline,
// charging I-cache misses and stopping at mispredicted branches until they
// resolve.
func (c *refCore) fetch(now int64) {
	if now < c.fetchStallUntil || c.redirects > 0 {
		return
	}
	// fetchPending holds everything in flight in the front end: the
	// pipeline stages (FrontendDepth stages of FetchWidth) plus the
	// fetch queue proper. Capping it at the queue size alone would let
	// the 7-cycle front-end latency throttle dispatch (Little's law).
	capacity := c.cfg.FetchQueue + c.cfg.FrontendDepth*c.cfg.FetchWidth
	for fetched := 0; fetched < c.cfg.FetchWidth; fetched++ {
		if len(c.fetchPending) >= capacity {
			return
		}
		if !c.peek() {
			return
		}
		in := c.nextInst

		if line := in.PC >> 6; line != c.lastFetchLine {
			ires := c.mem.Inst(c.id, in.PC, now)
			if ires.Latency > 0 {
				// I-cache/I-TLB miss: the fetch unit stalls for
				// the miss; the instruction is fetched when it
				// returns.
				c.fetchStallUntil = now + ires.Latency
				return
			}
			c.lastFetchLine = line
		}

		fe := refFetchEntry{inst: in, readyAt: now + int64(c.cfg.FrontendDepth)}
		if in.Class.IsBranch() && c.bp.Predict(&in) {
			fe.mispredict = true
		}
		c.nextValid = false
		c.fetchPending = append(c.fetchPending, fe)
		if fe.mispredict {
			// Wrong-path fetch: nothing useful enters until the
			// branch resolves (functional-first streams carry only
			// the correct path, so we model the redirect as a
			// fetch stall ending at branch completion).
			c.redirects++
			return
		}
	}
}

// dispatch moves instructions from the front-end into the ROB/IQ, honoring
// widths, structure capacities and serializing semantics.
func (c *refCore) dispatch(now int64) {
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		if len(c.fetchPending) == 0 || c.fetchPending[0].readyAt > now {
			if len(c.rob) > 0 || c.syncWait {
				c.DispatchStall++
			}
			return
		}
		fe := c.fetchPending[0]
		in := &fe.inst

		if in.Class == isa.Serializing || in.Class.IsSync() {
			// Serializing: wait for the ROB to drain, then execute
			// alone. Sync instructions additionally need the
			// driver's permission.
			if len(c.rob) > 0 {
				c.DispatchStall++
				return
			}
			lat := int64(1)
			if in.Class.IsSync() {
				dec := c.syncer.Sync(c.id, in, now)
				if !dec.Proceed {
					c.syncWait = true
					c.DispatchStall++
					return
				}
				c.syncWait = false
				lat = dec.Latency
			}
			c.fetchPending = c.fetchPending[1:]
			c.rob = append(c.rob, refROBEntry{
				inst: *in, seq: c.dispatchSeq,
				issued: true, complete: now + lat,
			})
			c.dispatchSeq++
			return
		}

		if len(c.rob) >= c.cfg.ROBSize || len(c.iq) >= c.cfg.IssueQueueSize {
			c.DispatchStall++
			return
		}
		if in.Class.IsMem() {
			if c.lsqCount >= c.cfg.LSQSize {
				c.DispatchStall++
				return
			}
			c.lsqCount++
			if in.Class == isa.Store {
				c.storeLines[in.Addr>>6]++
			}
		}
		c.fetchPending = c.fetchPending[1:]

		e := refROBEntry{
			inst: *in, seq: c.dispatchSeq, misp: fe.mispredict,
			prod1: refNoProducer, prod2: refNoProducer,
		}
		c.dispatchSeq++
		if in.Src1 != isa.RegNone {
			e.prod1 = c.lastWriter[in.Src1]
		}
		if in.Src2 != isa.RegNone {
			e.prod2 = c.lastWriter[in.Src2]
		}
		if in.HasDst() {
			c.lastWriter[in.Dst] = e.seq
		}
		c.rob = append(c.rob, e)
		c.iq = append(c.iq, e.seq)
	}
}

// srcReady reports whether the producer with sequence s has a result
// available at time now.
func (c *refCore) srcReady(s uint64, now int64) bool {
	if s == refNoProducer {
		return true
	}
	p := c.entryBySeq(s)
	if p == nil {
		return true // already committed
	}
	return p.issued && p.complete <= now
}

// issue selects up to IssueWidth ready instructions oldest-first under
// functional-unit constraints and computes their completion times.
func (c *refCore) issue(now int64) {
	if len(c.iq) == 0 {
		return
	}
	issued := 0
	intFU, lsFU, fpFU := c.cfg.IntALUs, c.cfg.LoadStoreFUs, c.cfg.FPUnits
	w := 0
	for r := 0; r < len(c.iq); r++ {
		seq := c.iq[r]
		e := c.entryBySeq(seq)
		if e == nil {
			continue // defensive; committed entries leave the IQ at issue
		}
		if issued >= c.cfg.IssueWidth ||
			!c.srcReady(e.prod1, now) || !c.srcReady(e.prod2, now) {
			c.iq[w] = seq
			w++
			continue
		}
		var fu *int
		switch e.inst.Class {
		case isa.Load, isa.Store:
			fu = &lsFU
		case isa.FPOp:
			fu = &fpFU
		default:
			fu = &intFU
		}
		if *fu == 0 {
			c.iq[w] = seq
			w++
			continue
		}
		*fu--
		issued++
		e.issued = true
		e.complete = c.execute(&e.inst, now)
		if e.misp {
			// Redirect: fetch resumes when the branch resolves;
			// the front-end pipeline depth is then paid again by
			// the new entries' readyAt.
			if e.complete > c.fetchStallUntil {
				c.fetchStallUntil = e.complete
			}
			c.redirects--
		}
	}
	c.iq = c.iq[:w]
}

// execute computes the completion time of an instruction issued at now,
// performing the memory access for loads.
func (c *refCore) execute(in *isa.Inst, now int64) int64 {
	lat := int64(c.cfg.ExecLatency(in.Class))
	if in.Class == isa.Load {
		// Memory disambiguation: a load whose line has an in-flight
		// older store forwards from the store queue instead of
		// accessing the cache (store-to-load forwarding).
		if c.storeLines[in.Addr>>6] > 0 {
			return now + lat
		}
		res := c.mem.Data(c.id, in.Addr, false, now)
		lat += res.Latency
	}
	if in.Class == isa.Store {
		// Stores only compute their address at issue; the memory
		// access happens at store-buffer drain after commit.
		lat = 1
	}
	return now + lat
}

// commit retires completed instructions in order, moving stores to the
// store buffer.
func (c *refCore) commit(now int64) {
	n := 0
	for n < c.cfg.DecodeWidth && len(c.rob) > 0 {
		e := &c.rob[0]
		if !e.issued || e.complete > now {
			return
		}
		if e.inst.Class == isa.Store {
			if len(c.storeBuf) >= c.cfg.StoreBufferSize {
				return // store buffer full blocks commit
			}
			c.storeBuf = append(c.storeBuf, e.inst.Addr)
			line := e.inst.Addr >> 6
			if n := c.storeLines[line]; n > 1 {
				c.storeLines[line] = n - 1
			} else {
				delete(c.storeLines, line)
			}
		}
		if e.inst.Class.IsMem() {
			c.lsqCount--
		}
		if e.inst.HasDst() && c.lastWriter[e.inst.Dst] == e.seq {
			c.lastWriter[e.inst.Dst] = refNoProducer
		}
		c.rob = c.rob[1:]
		c.retired++
		n++
	}
}

// drainStoreBuffer writes buffered stores to the memory system, overlapping
// up to len(sbPortFree) outstanding store misses.
func (c *refCore) drainStoreBuffer(now int64) {
	for p := range c.sbPortFree {
		if len(c.storeBuf) == 0 {
			return
		}
		if now < c.sbPortFree[p] {
			continue
		}
		addr := c.storeBuf[0]
		c.storeBuf = c.storeBuf[1:]
		res := c.mem.Data(c.id, addr, true, now)
		c.sbPortFree[p] = now + 1 + res.Latency
	}
}

var _ sim.Core = (*refCore)(nil)
