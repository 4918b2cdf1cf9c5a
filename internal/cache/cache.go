// Package cache implements the structural cache and TLB models used by the
// memory hierarchy: set-associative caches with true-LRU replacement and
// write-back/write-allocate policy, TLBs, an MSHR file for merging
// outstanding misses, and the flat line table the coherence engines and the
// stride prefetcher keep their per-line state in.
//
// These models are purely structural: they track which lines are present
// and in what state, and answer hit/miss queries. Latency composition and
// coherence are handled by the memhier and coherence packages.
package cache

import (
	"fmt"

	"repro/internal/config"
)

// line is one cache line frame: the tag word packs the tag with the valid
// and dirty bits (bits 0 and 1), so a frame is 16 bytes and a 4-way set
// scans a single host cache line. Simulated addresses stay well below 62
// tag bits. lru is the last-use stamp; larger is more recent.
type line struct {
	key uint64 // tag<<2 | dirty<<1 | valid
	lru uint64
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
)

// Cache is a set-associative cache with true-LRU replacement. It is a
// structural model: Access and Probe report presence, Fill inserts lines
// and reports the evicted victim.
type Cache struct {
	cfg      config.Cache
	lines    []line // set s occupies lines[s*assoc : (s+1)*assoc]
	assoc    int
	setShift uint
	setMask  uint64
	tagShift uint   // log2(number of sets), hoisted off the access path
	lineMask uint64 // LineSize-1
	stamp    uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	WriteBack uint64
}

// New creates a cache with the given geometry. It panics if the geometry is
// not a power-of-two number of sets, because index extraction uses masking.
func New(cfg config.Cache) *Cache {
	nsets := cfg.Sets()
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", nsets))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", cfg.LineSize))
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setShift: uint(log2(cfg.LineSize)),
		setMask:  uint64(nsets - 1),
		tagShift: uint(log2(nsets)),
		lineMask: uint64(cfg.LineSize) - 1,
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() config.Cache { return c.cfg }

// Frames returns the total number of line frames (sets × associativity);
// it bounds the way indices returned by AccessWay and FillWay.
func (c *Cache) Frames() int { return len(c.lines) }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ c.lineMask
}

// set returns the frames of addr's set, the index of the first of them, and
// the key a valid clean frame holding addr carries.
func (c *Cache) set(addr uint64) (ways []line, base int, want uint64) {
	blk := addr >> c.setShift
	base = int(blk&c.setMask) * c.assoc
	return c.lines[base : base+c.assoc], base, blk>>c.tagShift<<2 | lineValid
}

// Access looks up addr, updating LRU state and statistics. write marks the
// line dirty on a hit. It returns whether the access hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	hit, _ := c.AccessRW(addr, write)
	return hit
}

// AccessRW is Access returning additionally whether a write hit found the
// line already dirty (in which case the coherence state must already be
// Modified and no protocol action is needed — a hot-path shortcut).
func (c *Cache) AccessRW(addr uint64, write bool) (hit, wasDirty bool) {
	hit, wasDirty, _ = c.accessWay(addr, write)
	return hit, wasDirty
}

// AccessWay is Access additionally returning the hit frame's global way
// index (set*assoc + way), so sidecar payload arrays (the BTB's targets)
// can live outside the cache without a map. The index is meaningful only on
// a hit.
func (c *Cache) AccessWay(addr uint64, write bool) (hit bool, way int) {
	hit, _, way = c.accessWay(addr, write)
	return hit, way
}

func (c *Cache) accessWay(addr uint64, write bool) (hit, wasDirty bool, way int) {
	ways, base, want := c.set(addr)
	c.stamp++
	for i := range ways {
		ln := &ways[i]
		if k := ln.key; k&^lineDirty == want {
			ln.lru = c.stamp
			if write {
				ln.key = k | lineDirty
			}
			c.Hits++
			return true, k&lineDirty != 0, base + i
		}
	}
	c.Misses++
	return false, false, 0
}

// Probe reports whether addr is present without updating LRU state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	ways, _, want := c.set(addr)
	for i := range ways {
		if ways[i].key&^lineDirty == want {
			return true
		}
	}
	return false
}

// Victim describes a line evicted by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Fill inserts the line containing addr, evicting the LRU way if the set is
// full. dirty marks the inserted line dirty (write-allocate store miss).
// The returned victim is valid only if an existing line was displaced.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	v, _ := c.FillWay(addr, dirty)
	return v
}

// FillWay is Fill additionally returning the global way index (set*assoc +
// way) of the frame the line now occupies — the refreshed frame when the
// line was already present, the filled frame otherwise.
func (c *Cache) FillWay(addr uint64, dirty bool) (Victim, int) {
	ways, base, want := c.set(addr)
	c.stamp++
	victimIdx := 0
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		ln := &ways[i]
		k := ln.key
		if k&^lineDirty == want {
			// Already present (e.g. filled by an overlapping miss);
			// refresh it.
			ln.lru = c.stamp
			if dirty {
				ln.key = k | lineDirty
			}
			return Victim{}, base + i
		}
		if k&lineValid == 0 {
			victimIdx = i
			oldest = 0
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victimIdx = i
		}
	}
	ln := &ways[victimIdx]
	var v Victim
	if k := ln.key; k&lineValid != 0 {
		v = Victim{
			Addr:  (k>>2<<c.tagShift | addr>>c.setShift&c.setMask) << c.setShift,
			Dirty: k&lineDirty != 0,
			Valid: true,
		}
		c.Evictions++
		if v.Dirty {
			c.WriteBack++
		}
	}
	key := want
	if dirty {
		key |= lineDirty
	}
	*ln = line{key: key, lru: c.stamp}
	return v, base + victimIdx
}

// Invalidate removes the line containing addr if present, returning whether
// it was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	ways, _, want := c.set(addr)
	for i := range ways {
		ln := &ways[i]
		if k := ln.key; k&^lineDirty == want {
			ln.key = 0
			return true, k&lineDirty != 0
		}
	}
	return false, false
}

// Clean clears the dirty bit of the line containing addr if present.
func (c *Cache) Clean(addr uint64) {
	ways, _, want := c.set(addr)
	for i := range ways {
		ln := &ways[i]
		if ln.key&^lineDirty == want {
			ln.key &^= lineDirty
			return
		}
	}
}

// Reset empties the cache and clears statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stamp = 0
	c.Hits, c.Misses, c.Evictions, c.WriteBack = 0, 0, 0, 0
}

// MissRate returns Misses / (Hits + Misses), or 0 for no accesses.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// ValidLines counts the number of valid lines (test helper).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].key&lineValid != 0 {
			n++
		}
	}
	return n
}

// DuplicateTags reports whether any set holds the same tag twice; always
// false for a correct implementation (used by property tests).
func (c *Cache) DuplicateTags() bool {
	for base := 0; base < len(c.lines); base += c.assoc {
		seen := make(map[uint64]bool, c.assoc)
		for _, ln := range c.lines[base : base+c.assoc] {
			if ln.key&lineValid == 0 {
				continue
			}
			tag := ln.key >> 2
			if seen[tag] {
				return true
			}
			seen[tag] = true
		}
	}
	return false
}

// ResetStats clears the statistics counters without touching contents,
// for functional-warmup runs.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.WriteBack = 0, 0, 0, 0
}
