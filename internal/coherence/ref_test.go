package coherence

// The earlier engines, kept verbatim as the references the table-backed
// protocol is compared against (diff_test.go): per-line state in Go maps, a
// heap slice per snooped line and a heap record per directory line. The
// directory is the one a "directory" machine ran before memhier built
// NewMESI for it.

import (
	"fmt"
	"math/bits"
)

// refProtocol tracks MOESI (or MESI) state for every line held by any private
// cache.
type refProtocol struct {
	cores int
	mesi  bool // four-state MESI: no Owned state, dirty sharing writes back
	lines map[uint64][]State

	// Statistics.
	ReadMisses      uint64
	WriteMisses     uint64
	Upgrades        uint64
	Interventions   uint64 // cache-to-cache transfers
	InvalidationsTx uint64 // total remote copies invalidated
}

// newRefProtocol creates a MOESI protocol instance for the given core count.
func newRefProtocol(cores int) *refProtocol {
	return &refProtocol{cores: cores, lines: make(map[uint64][]State)}
}

// newRefMESI creates a four-state MESI variant: there is no Owned state, so a
// dirty line read by another core is written back below and both copies
// become Shared. Comparing it against MOESI isolates the value of dirty
// sharing (the O state) — an ablation on Table 1's protocol choice.
func newRefMESI(cores int) *refProtocol {
	return &refProtocol{cores: cores, mesi: true, lines: make(map[uint64][]State)}
}

// State returns core's state for lineAddr.
func (p *refProtocol) State(core int, lineAddr uint64) State {
	if v, ok := p.lines[lineAddr]; ok {
		return v[core]
	}
	return Invalid
}

func (p *refProtocol) vec(lineAddr uint64) []State {
	v, ok := p.lines[lineAddr]
	if !ok {
		v = make([]State, p.cores)
		p.lines[lineAddr] = v
	}
	return v
}

func (p *refProtocol) gc(lineAddr uint64, v []State) {
	for _, s := range v {
		if s != Invalid {
			return
		}
	}
	delete(p.lines, lineAddr)
}

// Read performs the protocol action for core reading lineAddr.
func (p *refProtocol) Read(core int, lineAddr uint64) Result {
	v := p.vec(lineAddr)
	if v[core] != Invalid {
		return Result{Source: SrcOwn, NewState: v[core]}
	}
	p.ReadMisses++
	// Find a remote supplier: M and O (dirty) and E (clean) supply
	// cache-to-cache; S copies mean the level below has the data.
	remoteShared := false
	for c, s := range v {
		if c == core {
			continue
		}
		switch s {
		case Modified:
			if p.mesi {
				// MESI: write back below; both copies Shared.
				v[c] = Shared
				v[core] = Shared
				p.Interventions++
				return Result{Source: SrcRemote, NewState: Shared, WritebackBelow: true}
			}
			v[c] = Owned
			v[core] = Shared
			p.Interventions++
			return Result{Source: SrcRemote, NewState: Shared}
		case Owned:
			v[core] = Shared
			p.Interventions++
			return Result{Source: SrcRemote, NewState: Shared}
		case Exclusive:
			v[c] = Shared
			v[core] = Shared
			p.Interventions++
			return Result{Source: SrcRemote, NewState: Shared}
		case Shared:
			remoteShared = true
		}
	}
	if remoteShared {
		v[core] = Shared
		return Result{Source: SrcBelow, NewState: Shared}
	}
	v[core] = Exclusive
	return Result{Source: SrcBelow, NewState: Exclusive}
}

// Write performs the protocol action for core writing lineAddr.
func (p *refProtocol) Write(core int, lineAddr uint64) Result {
	v := p.vec(lineAddr)
	switch v[core] {
	case Modified:
		return Result{Source: SrcOwn, NewState: Modified}
	case Exclusive:
		v[core] = Modified
		return Result{Source: SrcOwn, NewState: Modified}
	case Owned, Shared:
		// Upgrade: invalidate all remote copies; no data transfer.
		p.Upgrades++
		res := Result{Source: SrcOwn, NewState: Modified}
		for c, s := range v {
			if c == core || s == Invalid {
				continue
			}
			v[c] = Invalid
			res.Invalidations++
			p.InvalidationsTx++
		}
		v[core] = Modified
		return res
	}
	// Write miss from Invalid: fetch with intent to modify.
	p.WriteMisses++
	res := Result{Source: SrcBelow, NewState: Modified}
	for c, s := range v {
		if c == core || s == Invalid {
			continue
		}
		if s == Modified || s == Owned {
			res.Source = SrcRemote
			p.Interventions++
		} else if res.Source != SrcRemote && s == Exclusive {
			res.Source = SrcRemote
			p.Interventions++
		}
		v[c] = Invalid
		res.Invalidations++
		p.InvalidationsTx++
	}
	v[core] = Modified
	return res
}

// Evict notifies the protocol that core's private cache dropped lineAddr
// (capacity or conflict eviction). It returns whether the evicted copy was
// dirty and must be written back below.
func (p *refProtocol) Evict(core int, lineAddr uint64) (writeback bool) {
	v, ok := p.lines[lineAddr]
	if !ok {
		return false
	}
	s := v[core]
	v[core] = Invalid
	p.gc(lineAddr, v)
	return s == Modified || s == Owned
}

// Holders returns the number of cores holding lineAddr in any valid state.
func (p *refProtocol) Holders(lineAddr uint64) int {
	n := 0
	for _, s := range p.lines[lineAddr] {
		if s != Invalid {
			n++
		}
	}
	return n
}

// CheckInvariants validates the MOESI single-writer/multiple-reader
// discipline for every tracked line, returning a descriptive error-like
// string ("" when consistent). Used by property tests.
func (p *refProtocol) CheckInvariants() string {
	for addr, v := range p.lines {
		var m, o, e, s int
		for _, st := range v {
			switch st {
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
		case m > 1:
			return fmt.Sprintf("line %#x: %d Modified copies", addr, m)
		case o > 1:
			return fmt.Sprintf("line %#x: %d Owned copies", addr, o)
		case e > 1:
			return fmt.Sprintf("line %#x: %d Exclusive copies", addr, e)
		case m == 1 && (o+e+s) > 0:
			return fmt.Sprintf("line %#x: Modified coexists with other copies", addr)
		case e == 1 && (m+o+s) > 0:
			return fmt.Sprintf("line %#x: Exclusive coexists with other copies", addr)
		}
	}
	return ""
}

// ResetStats clears the statistics counters without touching line state,
// for functional-warmup runs.
func (p *refProtocol) ResetStats() {
	p.ReadMisses, p.WriteMisses, p.Upgrades = 0, 0, 0
	p.Interventions, p.InvalidationsTx = 0, 0
}

// refDirEntry is the directory's record for one line: either a single owner
// holding the line Exclusive/Modified, or a set of Shared copies.
type refDirEntry struct {
	// owner is the core holding the line M or E, or -1.
	owner int
	// ownerDirty distinguishes Modified (true) from Exclusive.
	ownerDirty bool
	// sharers is a bitmap of cores holding Shared copies (meaningful
	// only when owner < 0).
	sharers uint64
}

// refDirectory is a MESI directory protocol: a home node tracks, per line,
// either a single exclusive owner or a sharer bitmap, and forwards or
// invalidates copies point-to-point instead of broadcasting on a snoop
// bus. It is the scalable coherence alternative for mesh/ring fabrics;
// comparing it with snooping MOESI is a system-level trade-off of exactly
// the kind the paper positions interval simulation for.
//
// The protocol is four-state (MESI): a dirty line read by another core is
// written back below and both copies become Shared, matching the snooping
// MESI variant so that the two implementations are observationally
// equivalent transaction by transaction (a property the tests check).
type refDirectory struct {
	cores int
	lines map[uint64]*refDirEntry

	// Statistics.
	ReadMisses      uint64
	WriteMisses     uint64
	Upgrades        uint64
	Interventions   uint64
	InvalidationsTx uint64
}

// newRefDirectory creates a MESI directory for the given core count (at most
// 64, the sharer-bitmap width).
func newRefDirectory(cores int) *refDirectory {
	if cores < 1 || cores > 64 {
		panic(fmt.Sprintf("coherence: directory supports 1..64 cores, got %d", cores))
	}
	return &refDirectory{cores: cores, lines: make(map[uint64]*refDirEntry)}
}

func (d *refDirectory) entry(lineAddr uint64) *refDirEntry {
	e, ok := d.lines[lineAddr]
	if !ok {
		e = &refDirEntry{owner: -1}
		d.lines[lineAddr] = e
	}
	return e
}

func (d *refDirectory) gc(lineAddr uint64, e *refDirEntry) {
	if e.owner < 0 && e.sharers == 0 {
		delete(d.lines, lineAddr)
	}
}

// State implements engine.
func (d *refDirectory) State(core int, lineAddr uint64) State {
	e, ok := d.lines[lineAddr]
	if !ok {
		return Invalid
	}
	if e.owner == core {
		if e.ownerDirty {
			return Modified
		}
		return Exclusive
	}
	if e.owner < 0 && e.sharers&(1<<uint(core)) != 0 {
		return Shared
	}
	return Invalid
}

// Read implements engine.
func (d *refDirectory) Read(core int, lineAddr uint64) Result {
	e := d.entry(lineAddr)
	bit := uint64(1) << uint(core)
	switch {
	case e.owner == core:
		st := Exclusive
		if e.ownerDirty {
			st = Modified
		}
		return Result{Source: SrcOwn, NewState: st}
	case e.owner < 0 && e.sharers&bit != 0:
		return Result{Source: SrcOwn, NewState: Shared}
	}
	d.ReadMisses++
	if e.owner >= 0 {
		// Forward from the owner; the owner downgrades to Shared. A
		// dirty owner writes back below (MESI has no Owned state).
		wb := e.ownerDirty
		e.sharers = (uint64(1) << uint(e.owner)) | bit
		e.owner = -1
		e.ownerDirty = false
		d.Interventions++
		return Result{Source: SrcRemote, NewState: Shared, WritebackBelow: wb}
	}
	if e.sharers != 0 {
		e.sharers |= bit
		return Result{Source: SrcBelow, NewState: Shared}
	}
	e.owner = core
	return Result{Source: SrcBelow, NewState: Exclusive}
}

// Write implements engine.
func (d *refDirectory) Write(core int, lineAddr uint64) Result {
	e := d.entry(lineAddr)
	bit := uint64(1) << uint(core)
	if e.owner == core {
		e.ownerDirty = true
		return Result{Source: SrcOwn, NewState: Modified}
	}
	if e.owner < 0 && e.sharers&bit != 0 {
		// Upgrade: invalidate the other sharers point-to-point.
		d.Upgrades++
		res := Result{Source: SrcOwn, NewState: Modified}
		others := e.sharers &^ bit
		res.Invalidations = bits.OnesCount64(others)
		d.InvalidationsTx += uint64(res.Invalidations)
		e.sharers = 0
		e.owner = core
		e.ownerDirty = true
		return res
	}
	// Write miss from Invalid.
	d.WriteMisses++
	res := Result{Source: SrcBelow, NewState: Modified}
	if e.owner >= 0 {
		res.Source = SrcRemote
		res.Invalidations = 1
		d.Interventions++
		d.InvalidationsTx++
	} else if e.sharers != 0 {
		res.Invalidations = bits.OnesCount64(e.sharers)
		d.InvalidationsTx += uint64(res.Invalidations)
	}
	e.sharers = 0
	e.owner = core
	e.ownerDirty = true
	return res
}

// Evict implements engine.
func (d *refDirectory) Evict(core int, lineAddr uint64) (writeback bool) {
	e, ok := d.lines[lineAddr]
	if !ok {
		return false
	}
	if e.owner == core {
		writeback = e.ownerDirty
		e.owner = -1
		e.ownerDirty = false
	} else {
		e.sharers &^= uint64(1) << uint(core)
	}
	d.gc(lineAddr, e)
	return writeback
}

// Holders implements engine.
func (d *refDirectory) Holders(lineAddr uint64) int {
	e, ok := d.lines[lineAddr]
	if !ok {
		return 0
	}
	if e.owner >= 0 {
		return 1
	}
	return bits.OnesCount64(e.sharers)
}

// CheckInvariants implements engine: an owner never coexists with sharers,
// and owner/sharer indices stay within the core count.
func (d *refDirectory) CheckInvariants() string {
	for addr, e := range d.lines {
		if e.owner >= d.cores {
			return fmt.Sprintf("line %#x: owner %d out of range", addr, e.owner)
		}
		if e.owner >= 0 && e.sharers != 0 {
			return fmt.Sprintf("line %#x: owner %d coexists with sharers %#x", addr, e.owner, e.sharers)
		}
		if e.sharers>>uint(d.cores) != 0 {
			return fmt.Sprintf("line %#x: sharer bitmap %#x exceeds %d cores", addr, e.sharers, d.cores)
		}
	}
	return ""
}

// Stats implements engine.
func (d *refDirectory) Stats() Traffic {
	return Traffic{
		ReadMisses:    d.ReadMisses,
		WriteMisses:   d.WriteMisses,
		Upgrades:      d.Upgrades,
		Interventions: d.Interventions,
		Invalidations: d.InvalidationsTx,
	}
}

// ResetStats implements engine.
func (d *refDirectory) ResetStats() {
	d.ReadMisses, d.WriteMisses, d.Upgrades = 0, 0, 0
	d.Interventions, d.InvalidationsTx = 0, 0
}

// Stats implements engine for the reference snooping protocol.
func (p *refProtocol) Stats() Traffic {
	return Traffic{
		ReadMisses:    p.ReadMisses,
		WriteMisses:   p.WriteMisses,
		Upgrades:      p.Upgrades,
		Interventions: p.Interventions,
		Invalidations: p.InvalidationsTx,
	}
}

// engine is what the differential test drives and compares: the methods
// of Protocol, which both references implement.
type engine interface {
	Read(core int, lineAddr uint64) Result
	Write(core int, lineAddr uint64) Result
	Evict(core int, lineAddr uint64) bool
	State(core int, lineAddr uint64) State
	Holders(lineAddr uint64) int
	CheckInvariants() string
	Stats() Traffic
	ResetStats()
}

var (
	_ engine = (*Protocol)(nil)
	_ engine = (*refProtocol)(nil)
	_ engine = (*refDirectory)(nil)
)
