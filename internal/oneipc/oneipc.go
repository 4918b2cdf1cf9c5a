// Package oneipc implements the naive core model the paper cites as the
// common simplifying assumption in multi-core studies: every core executes
// one instruction per cycle except for memory accesses, which add their
// miss latency. It exists as an ablation baseline (Section 6, "Detailed
// cycle-level simulation"): interval simulation is the "easy-to-implement,
// fast and more accurate alternative for the one-IPC performance model".
package oneipc

import (
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fetchBatch is the functional→timing hand-off chunk size.
const fetchBatch = 1024

// Core is a one-IPC core model. It implements sim.Core.
type Core struct {
	id     int
	mem    *memhier.Hierarchy
	src    *trace.Buffered
	syncer sim.Syncer

	coreTime   int64
	pending    isa.Inst
	hasPending bool
	retired    uint64
	done       bool
	finishTime int64
}

// New creates a one-IPC core over the shared memory hierarchy.
func New(id int, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *Core {
	if syncer == nil {
		syncer = sim.NullSyncer{}
	}
	return &Core{
		id: id, mem: mem,
		src:    trace.NewBuffered(src, fetchBatch),
		syncer: syncer,
	}
}

// Retired implements sim.Core.
func (c *Core) Retired() uint64 { return c.retired }

// Done implements sim.Core.
func (c *Core) Done() bool { return c.done }

// FinishTime implements sim.Core.
func (c *Core) FinishTime() int64 { return c.finishTime }

// NextActive implements sim.Core.
func (c *Core) NextActive(now int64) int64 {
	if c.coreTime > now {
		return c.coreTime
	}
	return now
}

// IPC returns retired instructions per simulated cycle.
func (c *Core) IPC() float64 {
	if c.coreTime == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.coreTime)
}

// Step implements sim.Core: one instruction per cycle plus memory latency.
func (c *Core) Step(now int64) {
	if c.done || c.coreTime != now {
		return
	}
	if !c.hasPending {
		in, ok := c.src.Next()
		if !ok {
			c.done = true
			c.finishTime = c.coreTime
			return
		}
		c.pending = in
		c.hasPending = true
	}
	in := &c.pending
	if in.Class.IsSync() {
		dec := c.syncer.Sync(c.id, in, c.coreTime)
		if !dec.Proceed {
			c.coreTime++ // poll again next cycle
			return
		}
		c.coreTime += dec.Latency
		c.hasPending = false
		c.retired++
		return
	}
	lat := int64(1)
	if in.Class.IsMem() {
		res := c.mem.Data(c.id, in.Addr, in.Class == isa.Store, c.coreTime)
		lat += res.Latency
	}
	c.coreTime += lat
	c.hasPending = false
	c.retired++
}

var _ sim.Core = (*Core)(nil)
