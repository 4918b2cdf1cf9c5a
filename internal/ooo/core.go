// Package ooo is the detailed cycle-level out-of-order core model — the
// "detailed simulation" baseline that interval simulation is compared
// against throughout the paper's evaluation (the role M5's 28K-line O3
// model plays in the original).
//
// The model tracks every instruction through pipeline structures cycle by
// cycle: fetch into a fetch queue behind the front-end pipeline, dispatch
// into a reorder buffer and issue queue, wakeup/select with functional-unit
// constraints and true producer/consumer dependence tracking, memory access
// through the shared hierarchy, in-order commit with a draining store
// buffer, branch redirect on mispredictions, and pipeline drains for
// serializing instructions. It is intentionally an order of magnitude more
// work per instruction than the interval model; that gap is the subject of
// Figures 9 and 10.
//
// The implementation is event-driven and allocates nothing after New: every
// in-flight instruction lives once in a fixed ring, the issue queue is a set
// of ready bitmaps over that ring, and an instruction enters them when its
// last producer's completion time has passed (docs/architecture.md,
// "detailed core event loop"). After a cycle in which no stage could act,
// NextActive names the next cycle in which one can, and the driver skips
// the cycles between. What it simulates, cycle by cycle, is pinned against
// the straightforward polling model kept in ref_test.go.
package ooo

import (
	"math"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// fetchBatch is the functional→timing hand-off chunk size.
	fetchBatch = 1024
	// none is the empty link: no in-flight producer, end of a wake list,
	// empty wheel bucket.
	none = int32(-1)
	// notIssued is the completion time of an entry still in the issue
	// queue; no cycle reaches it, so commit needs no separate flag.
	notIssued = int64(math.MaxInt64)
	// wheelSize is the number of cycles the wake-up wheel spans (a power
	// of two). An entry due further ahead than that is simply met again,
	// still not due, each time the wheel comes round.
	wheelSize = 512
)

// Functional-unit classes: select keeps one ready bitmap per class so that
// an exhausted class drops out of the scan wholesale.
const (
	fuInt = iota
	fuLS
	fuFP
	numFU
)

// The per-instruction stages decode by class-indexed tables rather than by
// switches: the instruction mix is random, so a branch on the class is one
// the host mispredicts. Each table has a slot for every class byte, so the
// indexing needs no bounds check. fuOf is the functional-unit class; memOf
// is 1 for the classes that hold an LSQ entry.
var (
	fuOf  = [256]uint8{isa.Load: fuLS, isa.Store: fuLS, isa.FPOp: fuFP}
	memOf = [256]int8{isa.Load: 1, isa.Store: 1}
)

// entry is one in-flight instruction, from fetch to commit. It sits at
// win[seq&mask], where seq counts fetched instructions: fetch and dispatch
// are both in order, so the fetch queue is [disp, tail) and the ROB
// [head, disp) of one ring and the instruction is stored once.
type entry struct {
	inst isa.Inst
	// readyAt is, in the fetch queue, the cycle the instruction leaves
	// the front-end pipeline; in the issue queue, the latest completion
	// time among its producers that have issued.
	readyAt int64
	// complete is the completion (writeback) time, notIssued until issue.
	complete int64
	// wakeHead starts the list of consumers waiting for this entry to
	// issue. A list element names a consumer's operand, slot<<1|operand,
	// and continues at that consumer's next[operand].
	wakeHead int32
	// next also chains the wheel bucket through next[0]: an entry is on
	// the wheel only once it has left every wake list.
	next    [2]int32
	pending uint8 // producers that have not issued yet
	misp    bool  // mispredicted branch
}

// Core is one detailed out-of-order core. Create with New, then Step once
// per global cycle.
type Core struct {
	id     int
	cfg    config.Core
	bp     *branch.Unit
	mem    *memhier.Hierarchy
	syncer sim.Syncer

	// Functional→timing hand-off: the stream is pulled a chunk at a time
	// and fetch reads the chunk in place.
	src          trace.Stream
	buf          []isa.Inst
	bufPos, bufN int
	srcDone      bool

	// The in-flight window (see entry). head, disp and tail are sequence
	// numbers: next to commit, next to dispatch, next to fetch.
	win              []entry
	mask             uint64
	head, disp, tail uint64

	// Front end. fetchCap is everything in flight in the front end: the
	// pipeline stages (FrontendDepth stages of FetchWidth) plus the fetch
	// queue proper. Capping it at the queue size alone would let the
	// 7-cycle front-end latency throttle dispatch (Little's law).
	fetchCap        int
	fetchStallUntil int64
	lastFetchLine   uint64 // fetch is line-granular: one I-access per line
	redirects       int    // in-flight mispredicted branches blocking fetch

	// Back end occupancy.
	iqCount  int
	lsqCount int
	// lastWriter maps each architectural register to the window slot of
	// its most recent in-flight writer (none if none in flight). It has a
	// slot for every register byte, so an instruction without a
	// destination writes slot RegNone; operand never reads that slot.
	lastWriter [256]int32
	// lat is the execution latency by class (ExecLatency, except that a
	// store takes one cycle at issue to compute its address: its memory
	// access happens at store-buffer drain after commit).
	lat [256]int64

	// Wake-up/select. ready[w][k] has bit b set when the entry in slot
	// 64w+b is in the issue queue, of FU class k, and all its operands
	// are available; wheel[t&(wheelSize-1)] lists the entries whose
	// producers have all issued and whose operands are ready at t (or at
	// t plus a multiple of wheelSize); timed has bit b set while bucket b
	// is not empty.
	ready  [][numFU]uint64
	nReady int
	wheel  []int32
	timed  [wheelSize / 64]uint64
	nTimed int
	// wakeAt is a lower bound on the ready time of every entry on the
	// wheel (notIssued when it is empty): wake walks the wheel only once
	// it has passed.
	wakeAt int64

	// stores counts in-flight (dispatched, uncommitted) stores per cache
	// line for store-to-load forwarding disambiguation: one count word
	// per line, and a line leaves the table when its count reaches zero.
	// The LSQ bounds the lines held at once, so the table never grows.
	stores *cache.LineTable

	// Store buffer: committed stores draining to memory through a small
	// number of ports (outstanding store misses overlap, as through
	// MSHRs in a real machine).
	sb             []uint64
	sbMask         uint64
	sbHead, sbTail uint64
	sbPortFree     [4]int64

	syncWait bool

	// acted is set by every stage that changes the core's state or calls
	// out of it in the current Step; last is that Step's cycle. After a
	// Step with acted unset, nothing happens before the cycle NextActive
	// names. horizon is the cycle NextActive never answers past: the
	// run's cycle limit.
	acted   bool
	last    int64
	horizon int64

	retired    uint64
	done       bool
	finishTime int64

	// Statistics. Both count the cycles NextActive skipped as well as the
	// cycles stepped.
	Cycles        int64
	DispatchStall int64
}

// New creates a detailed core. The branch unit and hierarchy are shared
// miss-event simulators, identical to those driving the interval model.
// NextActive never answers a cycle after horizon, so a run that stops
// there stops where stepping every cycle would have.
func New(id int, cfg config.Core, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer, horizon int64) *Core {
	if syncer == nil {
		syncer = sim.NullSyncer{}
	}
	fetchCap := cfg.FetchQueue + cfg.FrontendDepth*cfg.FetchWidth
	// At least one bitmap word more than the ROB, so select never meets
	// the same word at both ends of its scan.
	n := 1 << bits.Len(uint(cfg.ROBSize+max(fetchCap, 64)-1))
	c := &Core{
		id:       id,
		cfg:      cfg,
		bp:       bp,
		mem:      mem,
		syncer:   syncer,
		src:      src,
		buf:      make([]isa.Inst, fetchBatch),
		win:      make([]entry, n),
		mask:     uint64(n - 1),
		fetchCap: fetchCap,
		ready:    make([][numFU]uint64, n/64),
		wheel:    make([]int32, wheelSize),
		stores:   cache.NewLineTable(cfg.LSQSize, 1),
		sb:       make([]uint64, 1<<bits.Len(uint(cfg.StoreBufferSize-1))),
		wakeAt:   notIssued,
		horizon:  horizon,
	}
	c.sbMask = uint64(len(c.sb) - 1)
	for i := range c.lastWriter {
		c.lastWriter[i] = none
	}
	for k := range c.lat {
		c.lat[k] = int64(cfg.ExecLatency(isa.Class(k)))
	}
	c.lat[isa.Store] = 1
	for i := range c.wheel {
		c.wheel[i] = none
	}
	return c
}

// Retired implements sim.Core.
func (c *Core) Retired() uint64 { return c.retired }

// Done implements sim.Core.
func (c *Core) Done() bool { return c.done }

// FinishTime implements sim.Core.
func (c *Core) FinishTime() int64 { return c.finishTime }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.Cycles)
}

// Step implements sim.Core: simulate one cycle at global time now.
func (c *Core) Step(now int64) {
	if c.done {
		return
	}
	c.Cycles++
	c.acted = false
	c.last = now
	c.commit(now)
	c.drainStoreBuffer(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)

	if c.srcDone && c.head == c.tail && c.sbHead == c.sbTail {
		c.done = true
		c.finishTime = now
	}
}

// NextActive implements sim.Core. After a Step in which some stage acted
// the answer is now. After one in which none did, every stage waits for a
// time it already knows — commit for the ROB head's completion, the store
// buffer for a port, issue for the next due wheel bucket, dispatch for the
// fetch-queue head's front-end exit, fetch for the end of its stall — or
// for another stage to act first, so the answer is the earliest of those
// times (a sync-blocked core polled in its Step, which is acting). The
// cycles before it are counted as stepped: each adds a cycle, and a
// dispatch stall while the ROB holds anything.
func (c *Core) NextActive(now int64) int64 {
	if c.acted || c.done {
		return now
	}
	// A time the last Step already reached is not what a stage waits
	// for: a completed head store waits for a store buffer entry, a
	// fetch-queue head out of the front end for space that commit or
	// issue frees.
	w := min(c.horizon, c.wakeAt)
	if c.head != c.disp {
		if t := c.win[c.head&c.mask].complete; t > c.last {
			w = min(w, t)
		}
	}
	if c.sbHead != c.sbTail {
		for _, free := range c.sbPortFree {
			w = min(w, free)
		}
	}
	if c.disp != c.tail {
		if t := c.win[c.disp&c.mask].readyAt; t > c.last {
			w = min(w, t)
		}
	}
	if c.redirects == 0 && c.fetchStallUntil > c.last {
		w = min(w, c.fetchStallUntil)
	}
	if w <= now {
		return now
	}
	c.Cycles += w - now
	if c.head != c.disp {
		c.DispatchStall += w - now
	}
	return w
}

// refill pulls the next chunk of the stream; false at end of stream.
func (c *Core) refill() bool {
	if c.srcDone {
		return false
	}
	c.bufN = c.src.NextBatch(c.buf)
	c.bufPos = 0
	if c.bufN == 0 {
		c.srcDone = true
		return false
	}
	return true
}

// fetch brings up to FetchWidth instructions into the front-end pipeline,
// charging I-cache misses and stopping at mispredicted branches until they
// resolve.
func (c *Core) fetch(now int64) {
	if now < c.fetchStallUntil || c.redirects > 0 {
		return
	}
	for fetched := 0; fetched < c.cfg.FetchWidth; fetched++ {
		if int(c.tail-c.disp) >= c.fetchCap {
			return
		}
		if c.bufPos == c.bufN && !c.refill() {
			return
		}
		in := &c.buf[c.bufPos]

		if line := in.PC >> 6; line != c.lastFetchLine {
			c.acted = true
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

		e := &c.win[c.tail&c.mask]
		e.inst = *in
		e.readyAt = now + int64(c.cfg.FrontendDepth)
		e.misp = in.Class.IsBranch() && c.bp.Predict(in)
		c.bufPos++
		c.tail++
		c.acted = true
		if e.misp {
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
func (c *Core) dispatch(now int64) {
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		slot := int32(c.disp & c.mask)
		e := &c.win[slot]
		if c.disp == c.tail || e.readyAt > now {
			if c.head != c.disp || c.syncWait {
				c.DispatchStall++
			}
			return
		}
		in := &e.inst

		if in.Class == isa.Serializing || in.Class.IsSync() {
			// Serializing: wait for the ROB to drain, then execute
			// alone. Sync instructions additionally need the
			// driver's permission.
			if c.head != c.disp {
				c.DispatchStall++
				return
			}
			c.acted = true
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
			e.complete = now + lat
			c.disp++
			return
		}

		if int(c.disp-c.head) >= c.cfg.ROBSize || c.iqCount >= c.cfg.IssueQueueSize {
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
				c.stores.Insert(in.Addr >> 6)[0]++
			}
		}
		c.disp++
		c.iqCount++
		c.acted = true

		// Rename: a source whose producer has issued contributes a known
		// completion time; one whose producer has not joins that
		// producer's wake list and learns the time when it issues.
		e.readyAt = math.MinInt64
		e.complete = notIssued
		e.wakeHead = none
		e.pending = 0
		c.operand(slot, e, 0, in.Src1)
		c.operand(slot, e, 1, in.Src2)
		c.lastWriter[in.Dst] = slot
		if e.pending == 0 {
			c.schedule(slot, e, now)
		}
	}
}

// operand resolves source operand k (register r) of the entry being
// dispatched into slot.
func (c *Core) operand(slot int32, e *entry, k int32, r uint8) {
	if r == isa.RegNone || c.lastWriter[r] == none {
		return
	}
	p := &c.win[c.lastWriter[r]]
	if p.complete == notIssued {
		e.next[k] = p.wakeHead
		p.wakeHead = slot<<1 | k
		e.pending++
	} else if p.complete > e.readyAt {
		e.readyAt = p.complete
	}
}

// schedule files an entry whose producers have all issued: into the ready
// bitmap if its operands are available now, onto the wheel otherwise.
func (c *Core) schedule(slot int32, e *entry, now int64) {
	if e.readyAt <= now {
		c.ready[slot>>6][fuOf[e.inst.Class]] |= 1 << (slot & 63)
		c.nReady++
		return
	}
	i := e.readyAt & (wheelSize - 1)
	e.next[0] = c.wheel[i]
	c.wheel[i] = slot
	c.timed[i>>6] |= 1 << (i & 63)
	c.nTimed++
	c.wakeAt = min(c.wakeAt, e.readyAt)
}

// wake moves the wheel's entries that have come due into the ready bitmaps.
// None is due before wakeAt, so until then it returns at once; after that
// it walks the buckets from wakeAt to now (at most one turn) and moves
// wakeAt to the next non-empty bucket, a lower bound on what it holds.
func (c *Core) wake(now int64) {
	if now < c.wakeAt {
		return
	}
	for t := max(c.wakeAt, now-wheelSize+1); t <= now; t++ {
		i := t & (wheelSize - 1)
		b := &c.wheel[i]
		slot := *b
		*b = none
		for slot != none {
			e := &c.win[slot]
			nxt := e.next[0]
			if e.readyAt <= now {
				c.nTimed--
				c.schedule(slot, e, now)
			} else { // a later turn of the wheel
				e.next[0] = *b
				*b = slot
			}
			slot = nxt
		}
		if *b == none {
			c.timed[i>>6] &^= 1 << (i & 63)
		}
	}
	c.wakeAt = notIssued
	if c.nTimed > 0 {
		c.wakeAt = c.nextTimed(now + 1)
	}
}

// nextTimed returns the first cycle from t on whose wheel bucket is not
// empty. The wheel must hold an entry.
func (c *Core) nextTimed(t int64) int64 {
	i := t & (wheelSize - 1)
	if w := c.timed[i>>6] >> (i & 63); w != 0 {
		return t + int64(bits.TrailingZeros64(w))
	}
	t += 64 - i&63
	for k := i>>6 + 1; ; k++ {
		if w := c.timed[k%(wheelSize/64)]; w != 0 {
			return t + int64(bits.TrailingZeros64(w))
		}
		t += 64
	}
}

// issue selects up to IssueWidth ready instructions oldest-first under
// functional-unit constraints, computes their completion times and wakes
// their consumers. Only ready entries are visited; a cycle in which none
// comes due costs one comparison.
func (c *Core) issue(now int64) {
	c.wake(now)
	if c.nReady == 0 {
		return
	}
	c.acted = true // a ready entry always finds a unit of its class
	width := c.cfg.IssueWidth
	fu := [numFU]int{c.cfg.IntALUs, c.cfg.LoadStoreFUs, c.cfg.FPUnits}
	var open [numFU]uint64 // all ones while the class has a unit left
	for k, n := range fu {
		if n != 0 {
			open[k] = ^uint64(0)
		}
	}
	// Walk the ROB's span of the ring in sequence order, a bitmap word at
	// a time. The words are re-read after every issue: a class may have
	// closed, and a zero-latency producer may just have readied a younger
	// entry, which must then issue in this same pass.
	for s := c.head; s < c.disp && width > 0 && c.nReady > 0; {
		word := &c.ready[(s&c.mask)>>6]
		w := (word[fuInt]&open[fuInt] | word[fuLS]&open[fuLS] | word[fuFP]&open[fuFP]) >> (s & 63)
		if w == 0 {
			s = (s | 63) + 1
			continue
		}
		s += uint64(bits.TrailingZeros64(w))
		e := &c.win[s&c.mask]
		k := fuOf[e.inst.Class]
		word[k] &^= 1 << (s & 63)
		c.nReady--
		c.iqCount--
		width--
		if fu[k]--; fu[k] == 0 {
			open[k] = 0
		}

		complete := c.execute(&e.inst, now)
		e.complete = complete
		if e.misp {
			// Redirect: fetch resumes when the branch resolves;
			// the front-end pipeline depth is then paid again by
			// the new entries' readyAt.
			if complete > c.fetchStallUntil {
				c.fetchStallUntil = complete
			}
			c.redirects--
		}
		for l := e.wakeHead; l != none; {
			cons := &c.win[l>>1]
			nxt := cons.next[l&1]
			if complete > cons.readyAt {
				cons.readyAt = complete
			}
			if cons.pending--; cons.pending == 0 {
				c.schedule(l>>1, cons, now)
			}
			l = nxt
		}
		s++
	}
}

// execute computes the completion time of an instruction issued at now,
// performing the memory access for loads.
func (c *Core) execute(in *isa.Inst, now int64) int64 {
	lat := c.lat[in.Class]
	if in.Class == isa.Load {
		// Memory disambiguation: a load whose line has an in-flight
		// older store forwards from the store queue instead of
		// accessing the cache (store-to-load forwarding).
		if c.stores.Len() > 0 && c.stores.Find(in.Addr>>6) != nil {
			return now + lat
		}
		lat += c.mem.Data(c.id, in.Addr, false, now).Latency
	}
	return now + lat
}

// commit retires completed instructions in order, moving stores to the
// store buffer.
func (c *Core) commit(now int64) {
	for n := 0; n < c.cfg.DecodeWidth && c.head != c.disp; n++ {
		slot := int32(c.head & c.mask)
		e := &c.win[slot]
		if e.complete > now {
			return
		}
		if e.inst.Class == isa.Store {
			if int(c.sbTail-c.sbHead) >= c.cfg.StoreBufferSize {
				return // store buffer full blocks commit
			}
			c.sb[c.sbTail&c.sbMask] = e.inst.Addr
			c.sbTail++
			line := e.inst.Addr >> 6
			if n := c.stores.Find(line); n[0] == 1 {
				c.stores.Delete(line)
			} else {
				n[0]--
			}
		}
		c.lsqCount -= int(memOf[e.inst.Class])
		if c.lastWriter[e.inst.Dst] == slot {
			c.lastWriter[e.inst.Dst] = none
		}
		c.head++
		c.retired++
		c.acted = true
	}
}

// drainStoreBuffer writes buffered stores to the memory system, overlapping
// up to len(sbPortFree) outstanding store misses.
func (c *Core) drainStoreBuffer(now int64) {
	for p := range c.sbPortFree {
		if c.sbHead == c.sbTail {
			return
		}
		if now < c.sbPortFree[p] {
			continue
		}
		addr := c.sb[c.sbHead&c.sbMask]
		c.sbHead++
		c.acted = true
		res := c.mem.Data(c.id, addr, true, now)
		c.sbPortFree[p] = now + 1 + res.Latency
	}
}

var _ sim.Core = (*Core)(nil)
