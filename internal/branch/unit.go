package branch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
)

// BTB is the branch target buffer: a set-associative tag store mapping
// branch PCs to targets. A taken branch whose target is absent from the BTB
// is a misfetch even when the direction was predicted correctly. The tag
// store is the structural cache model; targets live in a sidecar array
// indexed by the frame the tag occupies, so the per-branch lookup is an
// array read instead of a map access.
type BTB struct {
	inner   *cache.Cache
	targets []uint64
}

// NewBTB creates a BTB with the given entry count and associativity.
func NewBTB(entries, assoc int) *BTB {
	// Model each entry as a 4-byte "line" so that entries/assoc sets of
	// assoc ways hold exactly `entries` branches.
	inner := cache.New(config.Cache{
		SizeBytes: entries * 4,
		Assoc:     assoc,
		LineSize:  4,
	})
	return &BTB{inner: inner, targets: make([]uint64, inner.Frames())}
}

// Lookup reports whether the BTB holds a target for pc and whether that
// target matches the architectural target.
func (b *BTB) Lookup(pc, target uint64) (present, match bool) {
	if hit, way := b.inner.AccessWay(pc&^3, false); hit {
		return true, b.targets[way] == target
	}
	return false, false
}

// Update installs target for pc.
func (b *BTB) Update(pc, target uint64) {
	_, way := b.inner.FillWay(pc&^3, false)
	b.targets[way] = target
}

// Reset restores the power-on state.
func (b *BTB) Reset() {
	b.inner.Reset()
	for i := range b.targets {
		b.targets[i] = 0
	}
}

// RAS is the return address stack. It is a circular stack: pushes beyond
// capacity overwrite the oldest entry, as in hardware.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS creates a return address stack with the given number of entries.
func NewRAS(entries int) *RAS {
	return &RAS{stack: make([]uint64, entries)}
}

// Push records a return address on a call.
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. It reports false if the stack is
// empty (the prediction is then a guaranteed miss).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr = r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return addr, true
}

// Reset empties the stack.
func (r *RAS) Reset() {
	r.top, r.depth = 0, 0
}

// Unit is the complete per-core front-end predictor: direction predictor +
// BTB + RAS. It is the "branch predictor simulator" box in the paper's
// framework diagram (Figure 2).
type Unit struct {
	dir DirectionPredictor
	btb *BTB
	ras *RAS

	Lookups        uint64
	Mispredictions uint64
}

// NewUnit builds a predictor unit from a resolved machine's configuration
// (config.Machine.Resolve refuses unknown kinds). Unknown kinds panic.
func NewUnit(cfg config.BranchPredictor) *Unit {
	var dir DirectionPredictor
	switch cfg.Kind {
	case "local":
		dir = NewLocal(cfg.LocalHistoryEntries, cfg.LocalHistoryBits, cfg.PHTEntries)
	case "gshare":
		dir = NewGShare(cfg.PHTEntries, cfg.LocalHistoryBits)
	case "bimodal":
		dir = NewBimodal(cfg.PHTEntries)
	case "tournament":
		dir = NewTournament(cfg.PHTEntries, cfg.LocalHistoryBits)
	case "tage":
		dir = NewTAGE(cfg.PHTEntries)
	case "perfect":
		dir = Perfect{}
	default:
		panic("branch: unknown predictor kind " + cfg.Kind)
	}
	return &Unit{
		dir: dir,
		btb: NewBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras: NewRAS(cfg.RASEntries),
	}
}

// perfect reports whether the direction predictor is the perfect one, in
// which case BTB/RAS misses are ignored too (Figure 4 experiments assume a
// fully perfect front end).
func (u *Unit) perfect() bool {
	_, ok := u.dir.(Perfect)
	return ok
}

// Predict processes the dynamic branch in and reports whether it was
// mispredicted. The architectural outcome (in.Taken, in.Target) trains the
// structures.
func (u *Unit) Predict(in *isa.Inst) (mispredicted bool) {
	u.Lookups++
	switch in.Class {
	case isa.Call:
		u.ras.Push(in.PC + 4)
		mispredicted = u.predictDirect(in)
	case isa.Return:
		if u.perfect() {
			return false
		}
		addr, ok := u.ras.Pop()
		mispredicted = !ok || addr != in.Target
	default:
		mispredicted = u.predictDirect(in)
	}
	if mispredicted {
		u.Mispredictions++
	}
	return mispredicted
}

// predictDirect handles conditional and call branches through the direction
// predictor and BTB.
func (u *Unit) predictDirect(in *isa.Inst) bool {
	pred := u.dir.Predict(in.PC, in.Taken)
	if u.perfect() {
		return false
	}
	if pred != in.Taken {
		if in.Taken {
			u.btb.Update(in.PC, in.Target)
		}
		return true
	}
	if !in.Taken {
		return false
	}
	// Correctly predicted taken: need the target from the BTB.
	present, match := u.btb.Lookup(in.PC, in.Target)
	u.btb.Update(in.PC, in.Target)
	return !present || !match
}

// MispredictRate returns mispredictions per lookup.
func (u *Unit) MispredictRate() float64 {
	if u.Lookups == 0 {
		return 0
	}
	return float64(u.Mispredictions) / float64(u.Lookups)
}

// Reset restores the power-on state.
func (u *Unit) Reset() {
	u.dir.Reset()
	u.btb.Reset()
	u.ras.Reset()
	u.Lookups, u.Mispredictions = 0, 0
}

// ResetStats clears the lookup/misprediction counters without touching the
// predictor tables, for functional-warmup runs.
func (u *Unit) ResetStats() { u.Lookups, u.Mispredictions = 0, 0 }
