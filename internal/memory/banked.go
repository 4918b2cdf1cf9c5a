// Package memory models main memory: DRAM banks with open-page row
// buffers behind a finite-width data bus shared by all cores. The bus gives
// the machine a peak off-chip bandwidth; under contention requests queue,
// which is how the multi-program and multi-threaded experiments expose
// bandwidth pressure (Figures 6–8). The paper's fixed-latency DRAM is one
// bank whose row hits and row misses cost the same.
package memory

import (
	"fmt"
	"math/bits"
)

// MemStats aggregates the main-memory counters.
type MemStats struct {
	// Requests counts line fetches.
	Requests uint64
	// StallTotal is the total cycles requests spent queueing (for a
	// busy bank or the shared data bus).
	StallTotal int64
	// BusyTotal is the total cycles the shared data bus transferred.
	BusyTotal int64
}

type bank struct {
	freeAt  int64
	openRow int64 // -1: no row open (closed bank)
}

// Banked is a bank-parallel DRAM with open-page row buffers: an access to
// the currently open row of a bank pays the row-hit latency; any other
// access pays the row-conflict latency (precharge + activate + access) and
// leaves the new row open. Independent banks overlap; all banks share one
// data bus whose width bounds peak bandwidth. Address mapping is
// row:bank:column — all lines within one row map to the same bank, so
// streaming accesses enjoy row hits and row-sized strides sweep the banks.
type Banked struct {
	banks     []bank
	rowBytes  uint64
	rowHit    int64
	rowMiss   int64
	transfer  int64
	busFree   int64
	bankShift uint
	bankMask  uint64
	rowShift  uint // log2(bank count), hoisted off the access path

	MemStats
	// RowHits and RowMisses classify accesses by row-buffer outcome.
	RowHits   uint64
	RowMisses uint64
}

// NewBanked creates a banked DRAM. nbanks must be a power of two;
// rowBytes is the row-buffer size; rowHit and rowMiss are the access
// latencies in cycles for the two row-buffer outcomes; lineSize and
// busBytes give the shared data bus one line transfer of
// lineSize/busBytes cycles.
func NewBanked(nbanks int, rowBytes uint64, rowHit, rowMiss, lineSize, busBytes int) *Banked {
	if nbanks <= 0 || nbanks&(nbanks-1) != 0 {
		panic(fmt.Sprintf("memory: bank count %d is not a positive power of two", nbanks))
	}
	if rowBytes == 0 || rowBytes&(rowBytes-1) != 0 {
		panic(fmt.Sprintf("memory: row size %d is not a positive power of two", rowBytes))
	}
	tr := int64(lineSize / busBytes)
	if tr < 1 {
		tr = 1
	}
	b := &Banked{
		banks:     make([]bank, nbanks),
		rowBytes:  rowBytes,
		rowHit:    int64(rowHit),
		rowMiss:   int64(rowMiss),
		transfer:  tr,
		bankShift: uint(bits.TrailingZeros64(rowBytes)),
		rowShift:  uint(bits.TrailingZeros(uint(nbanks))),
		bankMask:  uint64(nbanks - 1),
	}
	for i := range b.banks {
		b.banks[i].openRow = -1
	}
	return b
}

// Map returns the bank index and row number for addr (exported for tests).
func (b *Banked) Map(addr uint64) (bankIdx int, row int64) {
	blk := addr >> b.bankShift
	return int(blk & b.bankMask), int64(blk >> b.rowShift)
}

// AccessLine fetches the line containing addr at time now and returns
// its total latency in cycles (queueing + access + transfer).
func (b *Banked) AccessLine(addr uint64, now int64) int64 {
	b.Requests++
	blk := addr >> b.bankShift
	bk := &b.banks[blk&b.bankMask]
	row := int64(blk >> b.rowShift)

	start := now
	if bk.freeAt > start {
		start = bk.freeAt
	}
	b.StallTotal += start - now

	// The requester waits the full access latency, but the bank is
	// occupied for less: column reads of an open row pipeline at the
	// burst rate, so a row hit holds the bank only for the transfer; a
	// row conflict additionally holds it for the precharge + activate
	// work (the hit/miss latency difference).
	var acc, busy int64
	if bk.openRow == row {
		acc = b.rowHit
		busy = b.transfer
		b.RowHits++
	} else {
		acc = b.rowMiss
		busy = b.rowMiss - b.rowHit + b.transfer
		b.RowMisses++
		bk.openRow = row
	}
	bk.freeAt = start + busy

	// Data transfer on the shared bus after the bank access.
	ts := start + acc
	if b.busFree > ts {
		b.StallTotal += b.busFree - ts
		ts = b.busFree
	}
	b.busFree = ts + b.transfer
	b.BusyTotal += b.transfer
	return ts + b.transfer - now
}

// RowHitRate returns RowHits / Requests, or 0 with no requests.
func (b *Banked) RowHitRate() float64 {
	if b.Requests == 0 {
		return 0
	}
	return float64(b.RowHits) / float64(b.Requests)
}

// Utilization returns the fraction of cycles the data bus was busy up to
// time now (0 if now is 0).
func (b *Banked) Utilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.BusyTotal) / float64(now)
}

// Stats returns the accumulated counters.
func (b *Banked) Stats() MemStats { return b.MemStats }

// ResetStats clears counters, pending bank and bus occupancy, and closes
// all row buffers.
func (b *Banked) ResetStats() {
	for i := range b.banks {
		b.banks[i] = bank{openRow: -1}
	}
	b.busFree = 0
	b.MemStats = MemStats{}
	b.RowHits, b.RowMisses = 0, 0
}
