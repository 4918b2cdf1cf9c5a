package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
)

// A line's directory entry is two words: either a single owner holding the
// line Exclusive/Modified, or a set of Shared copies. Two zero words are a
// line nobody holds, and such a line has no entry.
const (
	// dirSharers is a bitmap of cores holding Shared copies (meaningful
	// only when there is no owner).
	dirSharers = 0
	// dirOwner holds the owning core's number plus one in its low byte
	// (zero: no owner) and dirOwnerDirty, which distinguishes Modified
	// from Exclusive.
	dirOwner      = 1
	dirOwnerDirty = 1 << 8
)

// owner returns the core holding the line M or E, or -1.
func owner(e []uint64) int { return int(e[dirOwner]&0xFF) - 1 }

// Directory is a MESI directory protocol: a home node tracks, per line,
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
type Directory struct {
	cores int
	lines *cache.LineTable

	// Statistics.
	ReadMisses      uint64
	WriteMisses     uint64
	Upgrades        uint64
	Interventions   uint64
	InvalidationsTx uint64
}

// NewDirectory creates a MESI directory for the given core count (at most
// config.MaxDirectoryCores, the sharer-bitmap width); lines sizes its table
// as in New.
func NewDirectory(cores, lines int) *Directory {
	if cores < 1 || cores > config.MaxDirectoryCores {
		panic(fmt.Sprintf("coherence: directory supports 1..%d cores, got %d", config.MaxDirectoryCores, cores))
	}
	return &Directory{cores: cores, lines: cache.NewLineTable(lines, 2)}
}

// Cores returns the number of cores the directory was built for.
func (d *Directory) Cores() int { return d.cores }

// State implements Engine.
func (d *Directory) State(core int, lineAddr uint64) State {
	e := d.lines.Find(lineAddr)
	switch {
	case e == nil:
		return Invalid
	case e[dirOwner] == uint64(core+1)|dirOwnerDirty:
		return Modified
	case owner(e) == core:
		return Exclusive
	case owner(e) < 0 && e[dirSharers]&(1<<uint(core)) != 0:
		return Shared
	}
	return Invalid
}

// Read implements Engine.
func (d *Directory) Read(core int, lineAddr uint64) Result {
	e := d.lines.Insert(lineAddr)
	bit := uint64(1) << uint(core)
	own := owner(e)
	switch {
	case own == core:
		st := Exclusive
		if e[dirOwner]&dirOwnerDirty != 0 {
			st = Modified
		}
		return Result{Source: SrcOwn, NewState: st}
	case own < 0 && e[dirSharers]&bit != 0:
		return Result{Source: SrcOwn, NewState: Shared}
	}
	d.ReadMisses++
	if own >= 0 {
		// Forward from the owner; the owner downgrades to Shared. A
		// dirty owner writes back below (MESI has no Owned state).
		wb := e[dirOwner]&dirOwnerDirty != 0
		e[dirSharers] = (uint64(1) << uint(own)) | bit
		e[dirOwner] = 0
		d.Interventions++
		return Result{Source: SrcRemote, NewState: Shared, WritebackBelow: wb}
	}
	if e[dirSharers] != 0 {
		e[dirSharers] |= bit
		return Result{Source: SrcBelow, NewState: Shared}
	}
	e[dirOwner] = uint64(core + 1)
	return Result{Source: SrcBelow, NewState: Exclusive}
}

// Write implements Engine.
func (d *Directory) Write(core int, lineAddr uint64) Result {
	e := d.lines.Insert(lineAddr)
	bit := uint64(1) << uint(core)
	own := owner(e)
	res := Result{Source: SrcOwn, NewState: Modified}
	switch {
	case own == core:
	case own < 0 && e[dirSharers]&bit != 0:
		// Upgrade: invalidate the other sharers point-to-point.
		d.Upgrades++
		res.Invalidations = bits.OnesCount64(e[dirSharers] &^ bit)
	default:
		// Write miss from Invalid.
		d.WriteMisses++
		res.Source = SrcBelow
		if own >= 0 {
			res.Source = SrcRemote
			res.Invalidations = 1
			d.Interventions++
		} else {
			res.Invalidations = bits.OnesCount64(e[dirSharers])
		}
	}
	d.InvalidationsTx += uint64(res.Invalidations)
	e[dirSharers] = 0
	e[dirOwner] = uint64(core+1) | dirOwnerDirty
	return res
}

// Evict implements Engine.
func (d *Directory) Evict(core int, lineAddr uint64) (writeback bool) {
	e := d.lines.Find(lineAddr)
	if e == nil {
		return false
	}
	if owner(e) == core {
		writeback = e[dirOwner]&dirOwnerDirty != 0
		e[dirOwner] = 0
	} else {
		e[dirSharers] &^= uint64(1) << uint(core)
	}
	if e[dirOwner] == 0 && e[dirSharers] == 0 {
		d.lines.Delete(lineAddr)
	}
	return writeback
}

// Holders implements Engine.
func (d *Directory) Holders(lineAddr uint64) int {
	e := d.lines.Find(lineAddr)
	switch {
	case e == nil:
		return 0
	case owner(e) >= 0:
		return 1
	}
	return bits.OnesCount64(e[dirSharers])
}

// CheckInvariants implements Engine: an owner never coexists with sharers,
// owner/sharer indices stay within the core count, and a tracked line is
// held by somebody.
func (d *Directory) CheckInvariants() string {
	bad := ""
	d.lines.Each(func(addr uint64, e []uint64) {
		own, sharers := owner(e), e[dirSharers]
		switch {
		case bad != "":
		case own >= d.cores:
			bad = fmt.Sprintf("line %#x: owner %d out of range", addr, own)
		case own >= 0 && sharers != 0:
			bad = fmt.Sprintf("line %#x: owner %d coexists with sharers %#x", addr, own, sharers)
		case sharers>>uint(d.cores) != 0:
			bad = fmt.Sprintf("line %#x: sharer bitmap %#x exceeds %d cores", addr, sharers, d.cores)
		case own < 0 && sharers == 0:
			bad = fmt.Sprintf("line %#x: tracked but held by nobody", addr)
		}
	})
	return bad
}

// Stats implements Engine.
func (d *Directory) Stats() Traffic {
	return Traffic{
		ReadMisses:    d.ReadMisses,
		WriteMisses:   d.WriteMisses,
		Upgrades:      d.Upgrades,
		Interventions: d.Interventions,
		Invalidations: d.InvalidationsTx,
	}
}

// Reset drops all directory state and statistics.
func (d *Directory) Reset() {
	d.lines.Reset()
	d.ResetStats()
}

// ResetStats implements Engine.
func (d *Directory) ResetStats() {
	d.ReadMisses, d.WriteMisses, d.Upgrades = 0, 0, 0
	d.Interventions, d.InvalidationsTx = 0, 0
}

var _ Engine = (*Directory)(nil)
