package cache

import "math/bits"

// LineTable maps a line address (or any other key below ^uint64(0)) to a
// fixed number of value words. It is the one associative structure of the
// memory path besides the caches themselves — the coherence engines keep
// their per-line state in it and the stride prefetcher its per-region
// history — and it is flat: keys and values sit side by side in one word
// array, open-addressed with linear probing, so a lookup is a hash and a
// short walk over adjacent host memory, an entry is not a heap object and
// the collector has no pointers to trace.
//
// Deletion shifts the rest of the probe cluster back over the gap, so there
// are no tombstones and an empty slot always ends a probe. The table is
// sized for the number of entries its owner can hold at once and doubles
// only if that bound is exceeded, so within the bound nothing allocates
// after NewLineTable.
type LineTable struct {
	// Slot i is slots[i*stride : (i+1)*stride]: key+1 (0 marks an empty
	// slot, whose value words are zero too), then the value words.
	slots  []uint64
	stride int
	mask   int  // slot count - 1
	shift  uint // 64 - log2(slot count)
	n      int
}

// hashMul is the multiplier of the multiplicative (Fibonacci) hash the table
// and the MSHR's filter index by: 2^64 over the golden ratio, whose top bits
// spread neighbouring lines and lines a large power of two apart alike.
const hashMul = 0x9E3779B97F4A7C15

// lineTableMaxInit caps the words allocated up front (8 MiB); a bound that
// needs more starts there and grows on demand.
const lineTableMaxInit = 1 << 20

// NewLineTable creates a table of words value words per entry that holds
// bound entries at no more than half load.
func NewLineTable(bound, words int) *LineTable {
	count := 8
	for count < 2*bound && 2*count*(1+words) <= lineTableMaxInit {
		count *= 2
	}
	t := &LineTable{stride: 1 + words}
	t.init(count)
	return t
}

func (t *LineTable) init(count int) {
	t.slots = make([]uint64, count*t.stride)
	t.mask = count - 1
	t.shift = uint(64 - bits.TrailingZeros(uint(count)))
	t.n = 0
}

func (t *LineTable) home(key uint64) int {
	return int(key * hashMul >> t.shift)
}

// probe returns the slot holding key, or the empty slot that ends its probe
// sequence.
func (t *LineTable) probe(key uint64) int {
	i := t.home(key)
	for {
		if s := t.slots[i*t.stride]; s == 0 || s == key+1 {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// Len returns the number of entries.
func (t *LineTable) Len() int { return t.n }

// value returns the value words of the slot at offset o, capped so that an
// append cannot reach the next slot.
func (t *LineTable) value(o int) []uint64 {
	return t.slots[o+1 : o+t.stride : o+t.stride]
}

// Find returns key's value words, or nil when key has no entry. The slice
// aliases the table: it is valid until the next Insert or Delete.
func (t *LineTable) Find(key uint64) []uint64 {
	o := t.probe(key) * t.stride
	if t.slots[o] == 0 {
		return nil
	}
	return t.value(o)
}

// Insert returns key's value words, entering key with zero words first if
// it has no entry.
func (t *LineTable) Insert(key uint64) []uint64 {
	o := t.probe(key) * t.stride
	if t.slots[o] == 0 {
		if 2*t.n > t.mask {
			t.grow()
			o = t.probe(key) * t.stride
		}
		t.slots[o] = key + 1
		t.n++
	}
	return t.value(o)
}

// grow doubles the slot count and re-enters every entry.
func (t *LineTable) grow() {
	old := t.slots
	t.init(2 * (t.mask + 1))
	for o := 0; o < len(old); o += t.stride {
		if old[o] != 0 {
			copy(t.Insert(old[o]-1), old[o+1:o+t.stride])
		}
	}
}

// Delete removes key's entry, if any.
func (t *LineTable) Delete(key uint64) {
	i := t.probe(key)
	if t.slots[i*t.stride] == 0 {
		return
	}
	t.n--
	// Close the gap: pull back every later entry of the cluster whose home
	// slot is not cyclically inside (i, j], so that no probe sequence is
	// cut by the empty slot.
	for j := (i + 1) & t.mask; t.slots[j*t.stride] != 0; j = (j + 1) & t.mask {
		if h := t.home(t.slots[j*t.stride] - 1); (j-h)&t.mask >= (j-i)&t.mask {
			copy(t.slots[i*t.stride:(i+1)*t.stride], t.slots[j*t.stride:(j+1)*t.stride])
			i = j
		}
	}
	clear(t.slots[i*t.stride : (i+1)*t.stride])
}

// Each calls fn for every entry, in slot order.
func (t *LineTable) Each(fn func(key uint64, val []uint64)) {
	for o := 0; o < len(t.slots); o += t.stride {
		if t.slots[o] != 0 {
			fn(t.slots[o]-1, t.value(o))
		}
	}
}

// Reset removes every entry, keeping the storage.
func (t *LineTable) Reset() {
	clear(t.slots)
	t.n = 0
}
