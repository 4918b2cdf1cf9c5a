// Package branch implements the front-end branch prediction structures of
// Table 1: a 12Kbit local-history direction predictor, an 8-way
// set-associative 2K-entry branch target buffer and a 32-entry return
// address stack. Alternative direction predictors (gshare, bimodal,
// tournament, TAGE, perfect) are provided for ablation studies.
//
// Both timing models call Predict once per dynamic branch with the
// architectural outcome; the predictor updates its tables and reports
// whether it would have predicted the branch correctly. Interval simulation
// needs exactly this boolean (a misprediction is a miss event); the
// detailed baseline additionally uses it to redirect its front end.
package branch

// DirectionPredictor predicts conditional branch directions.
type DirectionPredictor interface {
	// Predict returns the predicted direction for the branch at pc and
	// then trains the predictor with the architectural outcome taken.
	Predict(pc uint64, taken bool) bool
}

// Local is the paper's local-history two-level predictor: a table of
// per-branch history registers indexing a shared pattern history table of
// 2-bit saturating counters. With 1K entries of 12-bit history the history
// table holds 12Kbit of state.
type Local struct {
	histories []uint16
	pht       []uint8
	histBits  int
}

// NewLocal creates a local predictor with the given geometry.
func NewLocal(historyEntries, historyBits, phtEntries int) *Local {
	if historyEntries&(historyEntries-1) != 0 || phtEntries&(phtEntries-1) != 0 {
		panic("branch: local predictor tables must be powers of two")
	}
	return &Local{
		histories: make([]uint16, historyEntries),
		pht:       newCounters(phtEntries, 2),
		histBits:  historyBits,
	}
}

// Predict implements DirectionPredictor.
func (l *Local) Predict(pc uint64, taken bool) bool {
	hidx := (pc >> 2) & uint64(len(l.histories)-1)
	hist := l.histories[hidx]
	pred := train(&l.pht[uint64(hist)&uint64(len(l.pht)-1)], taken)
	hist = hist<<1 | b2u16(taken)
	l.histories[hidx] = hist & (1<<uint(l.histBits) - 1)
	return pred
}

// GShare is a global-history predictor XOR-indexing a counter table.
type GShare struct {
	pht      []uint8
	history  uint64
	histBits int
}

// NewGShare creates a gshare predictor with the given table size and
// history length.
func NewGShare(phtEntries, historyBits int) *GShare {
	if phtEntries&(phtEntries-1) != 0 {
		panic("branch: gshare table must be a power of two")
	}
	return &GShare{pht: newCounters(phtEntries, 2), histBits: historyBits}
}

// Predict implements DirectionPredictor.
func (g *GShare) Predict(pc uint64, taken bool) bool {
	pred := train(&g.pht[((pc>>2)^g.history)&uint64(len(g.pht)-1)], taken)
	g.history = (g.history<<1 | uint64(b2u16(taken))) & (1<<uint(g.histBits) - 1)
	return pred
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	pht []uint8
}

// NewBimodal creates a bimodal predictor with the given table size.
func NewBimodal(entries int) *Bimodal {
	if entries&(entries-1) != 0 {
		panic("branch: bimodal table must be a power of two")
	}
	return &Bimodal{pht: newCounters(entries, 2)}
}

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(pc uint64, taken bool) bool {
	return train(&b.pht[(pc>>2)&uint64(len(b.pht)-1)], taken)
}

// Perfect always predicts correctly (used by the Figure 4 step-by-step
// accuracy experiments).
type Perfect struct{}

// Predict implements DirectionPredictor.
func (Perfect) Predict(pc uint64, taken bool) bool { return taken }

// newCounters returns a table of 2-bit saturating counters, each at
// start: 2 (weakly taken) for a pattern history table, 1 (weakly prefer
// bimodal) for the tournament chooser.
func newCounters(entries int, start uint8) []uint8 {
	t := make([]uint8, entries)
	for i := range t {
		t[i] = start
	}
	return t
}

// train returns the prediction of the 2-bit counter *ctr (taken at 2 or
// more) and steps it toward the outcome, saturating at 0 and 3.
func train(ctr *uint8, taken bool) bool {
	pred := *ctr >= 2
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
	return pred
}

func b2u16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// Tournament is a chooser-based hybrid: a bimodal predictor and a gshare
// predictor run side by side, and a table of 2-bit chooser counters indexed
// by PC selects which one to trust (the Alpha 21264 style). Used in
// predictor ablation studies.
type Tournament struct {
	bimodal *Bimodal
	gshare  *GShare
	choose  []uint8 // 0-1: prefer bimodal, 2-3: prefer gshare
}

// NewTournament creates a tournament predictor; each component table has
// the given entry count.
func NewTournament(entries, historyBits int) *Tournament {
	if entries&(entries-1) != 0 {
		panic("branch: tournament tables must be powers of two")
	}
	return &Tournament{
		bimodal: NewBimodal(entries),
		gshare:  NewGShare(entries, historyBits),
		choose:  newCounters(entries, 1),
	}
}

// Predict implements DirectionPredictor.
func (t *Tournament) Predict(pc uint64, taken bool) bool {
	idx := (pc >> 2) & uint64(len(t.choose)-1)
	pb := t.bimodal.Predict(pc, taken)
	pg := t.gshare.Predict(pc, taken)
	pred := pb
	if t.choose[idx] >= 2 {
		pred = pg
	}
	// Train the chooser toward the component that was right when they
	// disagreed.
	if pb != pg {
		train(&t.choose[idx], pg == taken)
	}
	return pred
}
