package branch

import "math/bits"

// TAGE is a simplified TAGE predictor (TAgged GEometric history lengths):
// a bimodal base predictor plus several partially-tagged tables indexed by
// hashes of geometrically increasing global-history lengths. The longest
// matching tagged entry provides the prediction; on a misprediction, a new
// entry is allocated in a longer table. Useful-bit aging and the
// alternate-prediction subtleties of full TAGE are simplified — this is
// the design-space predictor alternative, not a championship entry.
type TAGE struct {
	base  *Bimodal
	nbits uint // log2 of the table size: the index width

	tables []tageTable
	// history is the global branch-outcome history (youngest bit 0).
	history uint64

	// Last-prediction bookkeeping between index computation and update.
	idx [tageTables]uint64
	tag [tageTables]uint16
}

// tageTables is the number of tagged tables.
const tageTables = 4

// tageHistLens holds the geometric history lengths per table.
var tageHistLens = [tageTables]uint{4, 8, 16, 32}

type tageEntry struct {
	tag   uint16
	ctr   int8 // signed 3-bit counter: >= 0 predicts taken
	valid bool
	use   uint8 // usefulness for replacement
}

type tageTable struct {
	entries []tageEntry
	histLen uint
}

// NewTAGE creates a TAGE predictor with entriesPerTable entries in the
// base predictor and each tagged table (power of two).
func NewTAGE(entriesPerTable int) *TAGE {
	if entriesPerTable&(entriesPerTable-1) != 0 {
		panic("branch: TAGE tables must be powers of two")
	}
	t := &TAGE{base: NewBimodal(entriesPerTable), nbits: uint(bits.TrailingZeros(uint(entriesPerTable)))}
	t.tables = make([]tageTable, tageTables)
	for i := range t.tables {
		t.tables[i] = tageTable{
			entries: make([]tageEntry, entriesPerTable),
			histLen: tageHistLens[i],
		}
	}
	return t
}

// fold compresses histLen history bits and the PC into a table index.
func (t *TAGE) fold(pc uint64, histLen uint, bits uint) uint64 {
	h := t.history & (1<<histLen - 1)
	x := (pc >> 2) ^ h ^ (h >> 7) ^ (h >> 13)
	x ^= x >> bits
	return x & (1<<bits - 1)
}

// Predict implements DirectionPredictor.
func (t *TAGE) Predict(pc uint64, taken bool) bool {
	// Find the longest matching tagged table.
	provider := -1
	pred := t.base.peek(pc)
	for i := range t.tables {
		tb := &t.tables[i]
		idx := t.fold(pc, tb.histLen, t.nbits)
		tag := uint16(t.fold(pc*0x9e3779b9, tb.histLen, 10))
		t.idx[i], t.tag[i] = idx, tag
		e := &tb.entries[idx]
		if e.valid && e.tag == tag {
			provider = i
			pred = e.ctr >= 0
		}
	}

	// Update the provider (or the base when no table matched).
	if provider >= 0 {
		e := &t.tables[provider].entries[t.idx[provider]]
		if taken {
			if e.ctr < 3 {
				e.ctr++
			}
		} else if e.ctr > -4 {
			e.ctr--
		}
		if pred == taken {
			if e.use < 3 {
				e.use++
			}
		} else if e.use > 0 {
			e.use--
		}
	}
	t.base.Predict(pc, taken) // base always trains

	// On a misprediction, allocate in one longer table (lowest-use
	// entry wins; fresh entries start weakly toward the outcome).
	if pred != taken && provider < tageTables-1 {
		alloc := provider + 1
		for i := alloc; i < tageTables; i++ {
			e := &t.tables[i].entries[t.idx[i]]
			if !e.valid || e.use == 0 {
				alloc = i
				break
			}
		}
		e := &t.tables[alloc].entries[t.idx[alloc]]
		if !e.valid || e.use == 0 {
			*e = tageEntry{tag: t.tag[alloc], valid: true}
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
		} else {
			e.use--
		}
	}

	t.history = t.history<<1 | uint64(b2u16(taken))
	return pred
}

// peek returns the bimodal prediction without training (helper for TAGE).
func (b *Bimodal) peek(pc uint64) bool {
	idx := (pc >> 2) & uint64(len(b.pht)-1)
	return b.pht[idx] >= 2
}

var _ DirectionPredictor = (*TAGE)(nil)
