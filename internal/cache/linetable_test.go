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
		bound, words := 1+rng.Intn(40), 1+rng.Intn(3)
		tab := NewLineTable(bound, words)
		ref := map[uint64][]uint64{}
		keys := 1 + rng.Intn(4*bound)
		for op := 0; op < 3000; op++ {
			// Multiples of a large power of two collide after the
			// multiplicative hash as neighbouring lines do not.
			key := uint64(rng.Intn(keys)) << (uint(rng.Intn(2)) * 40)
			switch r := rng.Intn(100); {
			case r < 45:
				v := tab.Insert(key)
				if _, ok := ref[key]; !ok {
					if slices.ContainsFunc(v, func(w uint64) bool { return w != 0 }) {
						t.Fatalf("trial %d op %d: fresh entry %#x holds %v", trial, op, key, v)
					}
					ref[key] = make([]uint64, words)
				}
				w := rng.Intn(words)
				v[w] = rng.Uint64()
				ref[key][w] = v[w]
			case r < 85:
				tab.Delete(key)
				delete(ref, key)
			case r < 86:
				tab.Reset()
				clear(ref)
			}
			if got, want := tab.Find(key), ref[key]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d op %d: Find(%#x) = %v, map has %v", trial, op, key, got, want)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d, map has %d", trial, op, tab.Len(), len(ref))
			}
			if op%64 == 0 {
				seen := 0
				tab.Each(func(k uint64, v []uint64) {
					seen++
					if !slices.Equal(v, ref[k]) || !slices.Equal(tab.Find(k), v) {
						t.Fatalf("trial %d op %d: entry %#x = %v, Find %v, map %v", trial, op, k, v, tab.Find(k), ref[k])
					}
				})
				if seen != len(ref) {
					t.Fatalf("trial %d op %d: Each visited %d entries, map has %d", trial, op, seen, len(ref))
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
