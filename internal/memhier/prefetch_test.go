package memhier

import (
	"math/rand"
	"slices"
	"testing"
)

// refStridePrefetcher is the parent's prefetcher, kept verbatim as the
// reference the flat table is compared against: a map of heap entries, a
// division per access and a fresh slice per prediction.
type refStridePrefetcher struct {
	entries map[uint64]*refStrideEntry
	degree  int
}

type refStrideEntry struct {
	lastBlock  int64
	stride     int64
	confidence int
}

func newRefStridePrefetcher(degree int) *refStridePrefetcher {
	if degree <= 0 {
		degree = 2
	}
	return &refStridePrefetcher{
		entries: make(map[uint64]*refStrideEntry),
		degree:  degree,
	}
}

func (p *refStridePrefetcher) observe(line uint64, lineSize int) []uint64 {
	region := line >> strideRegionShift
	block := int64(line) / int64(lineSize)
	e, ok := p.entries[region]
	if !ok {
		if len(p.entries) >= maxStrideEntries {
			return nil
		}
		p.entries[region] = &refStrideEntry{lastBlock: block}
		return nil
	}
	delta := block - e.lastBlock
	e.lastBlock = block
	if delta == 0 {
		return nil
	}
	if delta == e.stride {
		if e.confidence < strideConfidence {
			e.confidence++
		}
	} else {
		e.stride = delta
		e.confidence = 0
	}
	if e.confidence < strideConfidence {
		return nil
	}
	out := make([]uint64, 0, p.degree)
	next := block
	for d := 0; d < p.degree; d++ {
		next += e.stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next)*uint64(lineSize))
	}
	return out
}

// TestStrideTableMatchesMap: the same predictions, access by access, over
// streams that walk forward and backward (down to line zero, where a
// prediction would go negative), sit in the upper half of the address space
// (slots 128 and up, where line numbers are negative), revisit regions at
// random, and touch more regions than the table holds — past
// maxStrideEntries both sides stop learning new regions and keep serving
// the ones they have.
func TestStrideTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, lineSize := range []int{64, 32, 128} {
		for degree := 0; degree <= 4; degree += 2 {
			got, ref := newStridePrefetcher(degree, lineSize), newRefStridePrefetcher(degree)
			type walker struct {
				line   uint64
				stride int64
			}
			walkers := make([]walker, 24)
			renew := func(w *walker) {
				// Region numbers far apart: the table fills well before
				// the test ends.
				w.line = uint64(rng.Intn(3*maxStrideEntries))<<strideRegionShift + uint64(rng.Intn(128)*lineSize)
				switch rng.Intn(4) {
				case 0:
					w.line |= 1 << 63
				case 1:
					w.line &= 1<<(strideRegionShift+2) - 1 // next to address zero
				}
				w.stride = int64(rng.Intn(9)-4) * int64(lineSize)
			}
			for i := range walkers {
				renew(&walkers[i])
			}
			predictions := 0
			for op := 0; op < 400_000; op++ {
				w := &walkers[rng.Intn(len(walkers))]
				if rng.Intn(12) == 0 {
					renew(w)
				}
				w.line += uint64(w.stride)
				g, r := got.observe(w.line), ref.observe(w.line, lineSize)
				if !slices.Equal(g, r) {
					t.Fatalf("line size %d degree %d op %d: observe(%#x) = %#x, reference %#x", lineSize, degree, op, w.line, g, r)
				}
				predictions += len(g)
			}
			if got.regions.Len() != maxStrideEntries || len(ref.entries) != maxStrideEntries {
				t.Fatalf("tables hold %d and %d regions, want both full at %d", got.regions.Len(), len(ref.entries), maxStrideEntries)
			}
			if predictions == 0 {
				t.Fatal("no stride was ever confirmed")
			}
		}
	}
}

// TestStrideObserveAllocsNothing: predictions come back in the prefetcher's
// own array and the table was sized for its bound at construction.
func TestStrideObserveAllocsNothing(t *testing.T) {
	p := newStridePrefetcher(4, 64)
	line := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2*maxStrideEntries; i++ {
			line += 3 * 64 << (strideRegionShift - 8) // a new region every few accesses
			p.observe(line)
		}
	}); avg != 0 {
		t.Fatalf("observe allocates %v times per %d accesses", avg, 2*maxStrideEntries)
	}
}
