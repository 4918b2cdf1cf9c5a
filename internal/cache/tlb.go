package cache

import (
	"fmt"

	"repro/internal/config"
)

// TLB is a set-associative translation lookaside buffer. It reuses the
// cache line model at page granularity: a "line" is one page translation.
type TLB struct {
	cfg   config.TLB
	inner *Cache
}

// NewTLB creates a TLB with the given geometry.
func NewTLB(cfg config.TLB) *TLB {
	if cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("tlb: page size %d is not a power of two", cfg.PageSize))
	}
	inner := New(config.Cache{
		SizeBytes: cfg.Entries * cfg.PageSize,
		Assoc:     cfg.Assoc,
		LineSize:  cfg.PageSize,
	})
	return &TLB{cfg: cfg, inner: inner}
}

// Config returns the TLB geometry.
func (t *TLB) Config() config.TLB { return t.cfg }

// Access translates addr: it returns true on a TLB hit. On a miss the
// translation is installed (the page walk itself is timed by the caller
// using Config().MissLatency).
func (t *TLB) Access(addr uint64) bool {
	if t.inner.Access(addr, false) {
		return true
	}
	t.inner.Fill(addr, false)
	return false
}

// Probe reports presence without side effects.
func (t *TLB) Probe(addr uint64) bool { return t.inner.Probe(addr) }

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.inner.Hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.inner.Misses }

// Reset empties the TLB and clears statistics.
func (t *TLB) Reset() { t.inner.Reset() }

// ResetStats clears the TLB statistics without touching contents.
func (t *TLB) ResetStats() { t.inner.ResetStats() }
