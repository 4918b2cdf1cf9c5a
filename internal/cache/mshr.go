package cache

import (
	"math"
	"math/bits"
)

// MSHR is a file of miss status holding registers: it tracks line addresses
// with misses outstanding until a given time, so that overlapping requests
// to the same line merge instead of issuing duplicate fills. The timing
// models use it to bound memory-level parallelism and to give secondary
// misses the residual latency of the primary miss.
//
// The file is a fixed array whose live entries are kept in a dense prefix —
// it is small (tens of entries, like the hardware). Two things keep a call
// from scanning it: the earliest live completion, so expiry returns at once
// while the clock is before it, and a presence filter over the pending
// lines, so a line that is not pending is answered by one bit probe. Both
// matter most under functional warm-up, whose clock is frozen at zero:
// nothing ever expires, the file fills with the first misses and every
// later miss is looked up, offered and refused.
type MSHR struct {
	pending  []mshrEntry
	live     int   // entries [0:live) are outstanding
	earliest int64 // min completion over the live entries
	// filter has one bit per hash bucket, set while some pending line maps
	// to it; with at least 32 buckets per entry a full file lets about one
	// line in 32 that is not pending through to the scan.
	filter []uint64
	shift  uint // 64 - log2(filter bits)
}

type mshrEntry struct {
	line       uint64
	completion int64
}

// NewMSHR creates an MSHR file with the given number of entries.
func NewMSHR(entries int) *MSHR {
	words := 1
	for words*2 < entries { // 64 bits a word: at least 32 buckets an entry
		words *= 2
	}
	return &MSHR{
		pending:  make([]mshrEntry, entries),
		earliest: math.MaxInt64,
		filter:   make([]uint64, words),
		shift:    uint(64 - 6 - bits.TrailingZeros(uint(words))),
	}
}

// bucket returns lineAddr's filter word and bit.
func (m *MSHR) bucket(lineAddr uint64) (word int, bit uint64) {
	h := lineAddr * hashMul >> m.shift
	return int(h >> 6), 1 << (h & 63)
}

// find returns the index of the live entry for lineAddr, or -1.
func (m *MSHR) find(lineAddr uint64) int {
	if w, bit := m.bucket(lineAddr); m.filter[w]&bit == 0 {
		return -1
	}
	for i := 0; i < m.live; i++ {
		if m.pending[i].line == lineAddr {
			return i
		}
	}
	return -1
}

// expire drops entries whose miss completed at or before now. Expiry is
// permanent — observed-complete entries stay dead even for a caller whose
// clock later restarts (the sampling harness re-times units from zero over
// a persistent hierarchy). Entry order within the prefix is insignificant.
func (m *MSHR) expire(now int64) {
	if now < m.earliest {
		return
	}
	clear(m.filter)
	m.earliest = math.MaxInt64
	for i := 0; i < m.live; {
		e := m.pending[i]
		if e.completion <= now {
			m.live--
			m.pending[i] = m.pending[m.live]
			continue
		}
		m.note(e)
		i++
	}
}

// note enters a live entry into the filter and the earliest completion.
func (m *MSHR) note(e mshrEntry) {
	w, bit := m.bucket(e.line)
	m.filter[w] |= bit
	m.earliest = min(m.earliest, e.completion)
}

// Lookup returns the completion time of an outstanding miss on lineAddr, if
// any, after discarding entries that completed at or before now.
func (m *MSHR) Lookup(lineAddr uint64, now int64) (completion int64, ok bool) {
	m.expire(now)
	if i := m.find(lineAddr); i >= 0 {
		return m.pending[i].completion, true
	}
	return 0, false
}

// Insert records a miss on lineAddr completing at completion. A line that
// is already pending keeps its entry (the miss merges). It reports false if
// the file is full (the caller should stall the request).
func (m *MSHR) Insert(lineAddr uint64, completion int64, now int64) bool {
	m.expire(now)
	if m.find(lineAddr) >= 0 {
		return true
	}
	if m.live == len(m.pending) {
		return false
	}
	e := mshrEntry{line: lineAddr, completion: completion}
	m.pending[m.live] = e
	m.live++
	m.note(e)
	return true
}

// Outstanding returns the number of live entries at time now.
func (m *MSHR) Outstanding(now int64) int {
	m.expire(now)
	return m.live
}

// Reset empties the file.
func (m *MSHR) Reset() {
	m.live = 0
	m.earliest = math.MaxInt64
	clear(m.filter)
}
