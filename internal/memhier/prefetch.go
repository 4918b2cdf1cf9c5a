package memhier

import (
	"math/bits"

	"repro/internal/cache"
)

// stridePrefetcher detects constant-stride access streams per memory region
// and predicts the next lines. It is the classic reference-prediction
// table, keyed by a 16KB region of the accessed address (the generator has
// no per-instruction PCs on the D-side path, so region-keying stands in for
// PC-keying; both capture the streaming/strided traffic the prefetcher is
// meant to catch).
//
// The table is a flat cache.LineTable sized once for maxStrideEntries
// regions. It never evicts: when it is full it stops learning new regions
// and keeps serving the ones it has, which is enough for the simulator's
// bounded working sets and means the table never grows.
type stridePrefetcher struct {
	regions   *cache.LineTable
	lineShift uint
	// targets backs the slice observe returns, one slot per degree.
	targets []uint64
}

// The value words of a region's entry.
const (
	strideLastBlock = iota // int64: the last accessed line number
	strideStep             // int64: the last seen stride, in lines
	strideConfirmed        // consecutive times that stride repeated
	strideEntryWords
)

// strideConfidence is the number of consecutive identical strides required
// before the prefetcher issues predictions (two confirmations, as in the
// original reference-prediction-table design).
const strideConfidence = 2

// strideRegionShift selects the region granularity (16KB).
const strideRegionShift = 14

// maxStrideEntries bounds the table like hardware would.
const maxStrideEntries = 4096

func newStridePrefetcher(degree, lineSize int) *stridePrefetcher {
	if degree <= 0 {
		degree = 2
	}
	return &stridePrefetcher{
		regions:   cache.NewLineTable(maxStrideEntries, strideEntryWords),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		targets:   make([]uint64, degree),
	}
}

// observe records an access to line (a line-aligned byte address) and
// returns the line addresses to prefetch, if the region has a confirmed
// stride. The hierarchy calls it on every D-side access, hits included: a
// hit on a prefetched line is what keeps the stride confirmed and the
// prefetcher running ahead of a covered stream. The returned slice is
// overwritten by the next call.
func (p *stridePrefetcher) observe(line uint64) []uint64 {
	region := line >> strideRegionShift
	// Arithmetic shifts: line numbers and strides are signed, as the
	// division by the line size they stand for was.
	block := int64(line) >> p.lineShift
	e := p.regions.Find(region)
	if e == nil {
		if p.regions.Len() < maxStrideEntries {
			p.regions.Insert(region)[strideLastBlock] = uint64(block)
		}
		return nil
	}
	delta := block - int64(e[strideLastBlock])
	e[strideLastBlock] = uint64(block)
	if delta == 0 {
		return nil
	}
	if delta == int64(e[strideStep]) {
		if e[strideConfirmed] < strideConfidence {
			e[strideConfirmed]++
		}
	} else {
		e[strideStep] = uint64(delta)
		e[strideConfirmed] = 0
	}
	if e[strideConfirmed] < strideConfidence {
		return nil
	}
	n := 0
	for next := block + delta; n < len(p.targets) && next >= 0; next += delta {
		p.targets[n] = uint64(next) << p.lineShift
		n++
	}
	return p.targets[:n]
}
