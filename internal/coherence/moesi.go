// Package coherence implements a MOESI snooping cache-coherence protocol
// over a shared bus, keeping the private L1 data caches of a multi-core
// processor coherent (Table 1: "coherence protocol: MOESI").
//
// The protocol object is the bookkeeping half of the model: it tracks the
// MOESI state of every line in every core and answers, for each read or
// write, where the data comes from (own cache, a remote cache, or the level
// below) and which remote copies must be invalidated or downgraded. The
// memhier package converts those answers into latencies and keeps the
// structural L1 models in sync.
//
// A MESI directory is the same state machine seen from a home node: it
// answers every transaction as snooping MESI does, so memhier runs NewMESI
// for it and adds the home-node lookup latency to each miss.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// State is the MOESI state of one line in one core's private cache.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy; other copies may exist; memory/L2 is
	// up to date or an Owned copy exists elsewhere.
	Shared
	// Exclusive: the only copy, clean.
	Exclusive
	// Owned: dirty copy responsible for supplying data; other Shared
	// copies may exist.
	Owned
	// Modified: the only copy, dirty.
	Modified
)

// String returns the one-letter MOESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Source says where the data for an access comes from.
type Source uint8

const (
	// SrcOwn: the line was already held in a sufficient state (hit).
	SrcOwn Source = iota
	// SrcRemote: supplied by another core's cache (cache-to-cache
	// transfer; a coherence miss in the paper's classification).
	SrcRemote
	// SrcBelow: supplied by the shared L2 / main memory.
	SrcBelow
)

// Result describes the protocol action for one access.
type Result struct {
	// Source of the data.
	Source Source
	// Invalidations is the number of remote copies invalidated.
	Invalidations int
	// WritebackBelow is true when a remote dirty copy had to push data
	// toward the next level (timed by the caller).
	WritebackBelow bool
	// NewState is the requesting core's state after the access.
	NewState State
}

// Traffic aggregates the protocol-level event counters, for post-run
// reporting.
type Traffic struct {
	// ReadMisses and WriteMisses count protocol transactions started
	// from the Invalid state.
	ReadMisses  uint64
	WriteMisses uint64
	// Upgrades counts writes that held a readable copy and only needed
	// remote invalidations.
	Upgrades uint64
	// Interventions counts cache-to-cache transfers.
	Interventions uint64
	// Invalidations counts remote copies invalidated.
	Invalidations uint64
}

// Protocol tracks MOESI (or MESI) state for every line held by any private
// cache. A line's entry in the table is its per-core state vector, four bits
// to a core and sixteen cores to a word; Invalid is zero, so a vector of
// zero words is a line nobody holds, and such a line has no entry.
type Protocol struct {
	cores int
	mesi  bool // four-state MESI: no Owned state, dirty sharing writes back
	lines *cache.LineTable

	// Statistics.
	ReadMisses      uint64
	WriteMisses     uint64
	Upgrades        uint64
	Interventions   uint64 // cache-to-cache transfers
	InvalidationsTx uint64 // total remote copies invalidated
}

// New creates a MOESI protocol instance for the given core count. lines is
// the number of distinct lines the private caches can hold between them
// (cores × frames): the state table is sized for it once and grows only if
// a caller tracks more.
func New(cores, lines int) *Protocol {
	return &Protocol{cores: cores, lines: cache.NewLineTable(lines, (cores+15)/16)}
}

// NewMESI creates a four-state MESI variant: there is no Owned state, so a
// dirty line read by another core is written back below and both copies
// become Shared. Comparing it against MOESI isolates the value of dirty
// sharing (the O state) — an ablation on Table 1's protocol choice.
func NewMESI(cores, lines int) *Protocol {
	p := New(cores, lines)
	p.mesi = true
	return p
}

// stateOf reads core's state out of a line's vector.
func stateOf(v []uint64, core int) State {
	return State(v[core>>4] >> (uint(core&15) * 4) & 15)
}

// setState writes core's state into a line's vector.
func setState(v []uint64, core int, s State) {
	sh := uint(core&15) * 4
	v[core>>4] = v[core>>4]&^(15<<sh) | uint64(s)<<sh
}

// firstHolder splits the lowest-numbered holder off a word of a state
// vector (which must not be zero): its core number within the word, its
// state, and the word without it.
func firstHolder(w uint64) (core int, s State, rest uint64) {
	sh := uint(bits.TrailingZeros64(w)) &^ 3
	return int(sh >> 2), State(w >> sh & 15), w &^ (15 << sh)
}

// State returns core's state for lineAddr.
func (p *Protocol) State(core int, lineAddr uint64) State {
	if v := p.lines.Find(lineAddr); v != nil {
		return stateOf(v, core)
	}
	return Invalid
}

// Read performs the protocol action for core reading lineAddr.
func (p *Protocol) Read(core int, lineAddr uint64) Result {
	v := p.lines.Insert(lineAddr)
	if s := stateOf(v, core); s != Invalid {
		return Result{Source: SrcOwn, NewState: s}
	}
	p.ReadMisses++
	// Find a remote supplier: M and O (dirty) and E (clean) supply
	// cache-to-cache; S copies mean the level below has the data. The
	// requester is Invalid, so every holder met is a remote one.
	remoteShared := false
	for wi, w := range v {
		for w != 0 {
			var c int
			var s State
			c, s, w = firstHolder(w)
			c += wi << 4
			switch s {
			case Modified:
				p.Interventions++
				setState(v, core, Shared)
				if p.mesi {
					// MESI: write back below; both copies Shared.
					setState(v, c, Shared)
					return Result{Source: SrcRemote, NewState: Shared, WritebackBelow: true}
				}
				setState(v, c, Owned)
				return Result{Source: SrcRemote, NewState: Shared}
			case Owned:
				setState(v, core, Shared)
				p.Interventions++
				return Result{Source: SrcRemote, NewState: Shared}
			case Exclusive:
				setState(v, c, Shared)
				setState(v, core, Shared)
				p.Interventions++
				return Result{Source: SrcRemote, NewState: Shared}
			case Shared:
				remoteShared = true
			}
		}
	}
	if remoteShared {
		setState(v, core, Shared)
		return Result{Source: SrcBelow, NewState: Shared}
	}
	setState(v, core, Exclusive)
	return Result{Source: SrcBelow, NewState: Exclusive}
}

// Write performs the protocol action for core writing lineAddr.
func (p *Protocol) Write(core int, lineAddr uint64) Result {
	v := p.lines.Insert(lineAddr)
	res := Result{Source: SrcOwn, NewState: Modified}
	switch stateOf(v, core) {
	case Modified:
		return res
	case Exclusive:
		setState(v, core, Modified)
		return res
	case Owned, Shared:
		// Upgrade: invalidate all remote copies; no data transfer.
		p.Upgrades++
		setState(v, core, Invalid)
		res.Invalidations = holders(v)
	default:
		// Write miss from Invalid: fetch with intent to modify.
		p.WriteMisses++
		res.Source = SrcBelow
		for _, w := range v {
			for w != 0 {
				var s State
				_, s, w = firstHolder(w)
				if s == Modified || s == Owned {
					res.Source = SrcRemote
					p.Interventions++
				} else if res.Source != SrcRemote && s == Exclusive {
					res.Source = SrcRemote
					p.Interventions++
				}
				res.Invalidations++
			}
		}
	}
	// Either way the writer ends up the only holder.
	p.InvalidationsTx += uint64(res.Invalidations)
	clear(v)
	setState(v, core, Modified)
	return res
}

// Evict notifies the protocol that core's private cache dropped lineAddr
// (capacity or conflict eviction). It returns whether the evicted copy was
// dirty and must be written back below.
func (p *Protocol) Evict(core int, lineAddr uint64) (writeback bool) {
	v := p.lines.Find(lineAddr)
	if v == nil {
		return false
	}
	s := stateOf(v, core)
	setState(v, core, Invalid)
	if holders(v) == 0 {
		p.lines.Delete(lineAddr)
	}
	return s == Modified || s == Owned
}

// holders counts the non-Invalid states of a line's vector.
func holders(v []uint64) int {
	n := 0
	for _, w := range v {
		// Fold each four-bit state onto its lowest bit.
		n += bits.OnesCount64((w | w>>1 | w>>2 | w>>3) & 0x1111111111111111)
	}
	return n
}

// Holders returns the number of cores holding lineAddr in any valid state.
func (p *Protocol) Holders(lineAddr uint64) int {
	return holders(p.lines.Find(lineAddr))
}

// CheckInvariants validates the MOESI single-writer/multiple-reader
// discipline for every tracked line, returning a descriptive error-like
// string ("" when consistent). Used by property tests.
func (p *Protocol) CheckInvariants() string {
	bad := ""
	p.lines.Each(func(addr uint64, v []uint64) {
		var m, o, e, s int
		for core := 0; core < p.cores; core++ {
			switch stateOf(v, core) {
			case Modified:
				m++
			case Owned:
				o++
			case Exclusive:
				e++
			case Shared:
				s++
			}
		}
		switch {
		case bad != "":
		case m+o+e+s == 0:
			bad = fmt.Sprintf("line %#x: tracked but held by nobody", addr)
		case m > 1:
			bad = fmt.Sprintf("line %#x: %d Modified copies", addr, m)
		case o > 1:
			bad = fmt.Sprintf("line %#x: %d Owned copies", addr, o)
		case e > 1:
			bad = fmt.Sprintf("line %#x: %d Exclusive copies", addr, e)
		case m == 1 && (o+e+s) > 0:
			bad = fmt.Sprintf("line %#x: Modified coexists with other copies", addr)
		case e == 1 && (m+o+s) > 0:
			bad = fmt.Sprintf("line %#x: Exclusive coexists with other copies", addr)
		}
	})
	return bad
}

// Stats returns the accumulated traffic counters.
func (p *Protocol) Stats() Traffic {
	return Traffic{
		ReadMisses:    p.ReadMisses,
		WriteMisses:   p.WriteMisses,
		Upgrades:      p.Upgrades,
		Interventions: p.Interventions,
		Invalidations: p.InvalidationsTx,
	}
}

// ResetStats clears the statistics counters without touching line state,
// for functional-warmup runs.
func (p *Protocol) ResetStats() {
	p.ReadMisses, p.WriteMisses, p.Upgrades = 0, 0, 0
	p.Interventions, p.InvalidationsTx = 0, 0
}
