package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLineTableMatchesMap drives the table against a map through inserts
// up to and beyond its bound (so it grows), colliding keys, deletions in
// every order and resets; contents must agree after every operation that
// changes them, and deletion must leave every survivor reachable.
func TestLineTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		checkLineTableMatchesMap(t, &draws{rng: rng})
	}
}

// FuzzLineTableMatchesMap is TestLineTableMatchesMap with the bound, the
// value-word count and the head of the operation stream taken from the
// fuzzer's bytes. Runs under -race in CI.
func FuzzLineTableMatchesMap(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 0})  // bound 1, no value words
	f.Add(int64(3), []byte{39, 3}) // bound 40, three value words
	f.Fuzz(func(t *testing.T, seed int64, head []byte) {
		if len(head) > 4096 {
			head = head[:4096]
		}
		checkLineTableMatchesMap(t, &draws{data: head, rng: rand.New(rand.NewSource(seed))})
	})
}

// checkLineTableMatchesMap runs one table of 1 to 40 bound and 0 to 3 value
// words against a map for 3000 operations drawn from d.
func checkLineTableMatchesMap(t *testing.T, d *draws) {
	t.Helper()
	bound, words := 1+d.n(40), d.n(4)
	tab := NewLineTable(bound, words)
	ref := map[uint64][]uint64{}
	keys := 1 + d.n(4*bound)
	for op := 0; op < 3000; op++ {
		// Multiples of a large power of two collide after the
		// multiplicative hash as neighbouring lines do not.
		key := uint64(d.n(keys)) << (uint(d.n(2)) * 40)
		switch r := d.n(100); {
		case r < 45:
			v := tab.Insert(key)
			if _, ok := ref[key]; !ok {
				if slices.ContainsFunc(v, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("bound %d words %d op %d: fresh entry %#x holds %v", bound, words, op, key, v)
				}
				ref[key] = make([]uint64, words)
			}
			if words > 0 {
				w := d.n(words)
				v[w] = d.rng.Uint64()
				ref[key][w] = v[w]
			}
		case r < 85:
			tab.Delete(key)
			delete(ref, key)
		case r < 86:
			tab.Reset()
			clear(ref)
		}
		if got, want := tab.Find(key), ref[key]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("bound %d words %d op %d: Find(%#x) = %v, map has %v", bound, words, op, key, got, want)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("bound %d words %d op %d: Len = %d, map has %d", bound, words, op, tab.Len(), len(ref))
		}
		if op%64 == 0 {
			seen := 0
			tab.Each(func(k uint64, v []uint64) {
				seen++
				if want, ok := ref[k]; !ok || !slices.Equal(v, want) || !slices.Equal(tab.Find(k), v) {
					t.Fatalf("bound %d words %d op %d: entry %#x = %v, Find %v, map %v", bound, words, op, k, v, tab.Find(k), want)
				}
			})
			if seen != len(ref) {
				t.Fatalf("bound %d words %d op %d: Each visited %d entries, map has %d", bound, words, op, seen, len(ref))
			}
		}
	}
}

// TestLineTableCountsDownThenDeletes drives the table the way the detailed
// core keeps its in-flight store lines: one count word per line, raised
// through Insert at dispatch, lowered at commit and the line deleted when
// its count reaches zero, never more lines than the bound. Membership and
// Len must match a multiset through fills, collisions and drains in every
// order.
func TestLineTableCountsDownThenDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		bound := 1 + rng.Intn(12)
		tab := NewLineTable(bound, 1)
		ref := map[uint64]int{}
		var held []uint64 // one element per in-flight store
		lines := 1 + rng.Intn(3*bound)
		for op := 0; op < 2000; op++ {
			switch {
			case len(held) < bound && rng.Intn(2) == 0:
				// Multiples of a large power of two collide after the
				// multiplicative hash as sequential lines do not.
				l := uint64(rng.Intn(lines)) << uint(rng.Intn(2)*40)
				tab.Insert(l)[0]++
				ref[l]++
				held = append(held, l)
			case len(held) > 0:
				i := rng.Intn(len(held))
				l := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				if n := tab.Find(l); n[0] == 1 {
					tab.Delete(l)
				} else {
					n[0]--
				}
				if ref[l]--; ref[l] == 0 {
					delete(ref, l)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("trial %d op %d: %d lines live, want %d", trial, op, tab.Len(), len(ref))
			}
			for l := 0; l < lines; l++ {
				for _, k := range []uint64{uint64(l), uint64(l) << 40} {
					n := tab.Find(k)
					if (n != nil) != (ref[k] > 0) || n != nil && n[0] != uint64(ref[k]) {
						t.Fatalf("trial %d op %d: Find(%#x) = %v, multiset holds %d", trial, op, k, n, ref[k])
					}
				}
			}
		}
	}
}

// TestLineTableAllocatesOnlyBeyondItsBound: within the bound it was built
// for the table never allocates; past it, it grows and keeps every entry.
func TestLineTableAllocatesOnlyBeyondItsBound(t *testing.T) {
	const bound = 100
	tab := NewLineTable(bound, 2)
	if avg := testing.AllocsPerRun(10, func() {
		for k := uint64(0); k < bound; k++ {
			tab.Insert(k << 6)[1] = k
		}
		for k := uint64(0); k < bound; k++ {
			tab.Delete(k << 6)
		}
	}); avg != 0 {
		t.Fatalf("%v allocations per fill and drain within the bound", avg)
	}
	for k := uint64(0); k < 50*bound; k++ {
		tab.Insert(k << 6)[1] = k
	}
	for k := uint64(0); k < 50*bound; k++ {
		if v := tab.Find(k << 6); v == nil || v[1] != k {
			t.Fatalf("entry %d after growth: %v", k, v)
		}
	}
}
