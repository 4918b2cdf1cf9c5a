package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(config.Cache{SizeBytes: 512, Assoc: 2, LineSize: 64})
}

func TestAccessMissThenFillHits(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("access after fill missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := smallCache()
	c.Fill(0x2000, false)
	for off := uint64(0); off < 64; off += 8 {
		if !c.Access(0x2000+off, false) {
			t.Fatalf("offset %d missed within a filled line", off)
		}
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set stride = 4 sets * 64B).
	a, b, d := uint64(0x0000), uint64(0x1000), uint64(0x2000)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // a is now MRU; b is LRU
	v := c.Fill(d, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("victim = %+v, want LRU line %#x", v, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatalf("contents wrong after eviction: a=%t b=%t d=%t",
			c.Probe(a), c.Probe(b), c.Probe(d))
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := smallCache()
	c.Fill(0x0000, true) // dirty
	c.Fill(0x1000, false)
	v := c.Fill(0x2000, false) // evicts 0x0000 (LRU)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("victim = %+v, want dirty line 0", v)
	}
	if c.WriteBack != 1 {
		t.Fatalf("WriteBack = %d, want 1", c.WriteBack)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := smallCache()
	c.Fill(0x3000, false)
	c.Access(0x3000, true) // write hit dirties the line
	c.Fill(0x4000, false)  // same set, newer than 0x3000
	v := c.Fill(0x5000, false)
	if !v.Valid {
		t.Fatal("no victim")
	}
	// 0x3000 is LRU (its last touch predates 0x4000's fill) and must
	// come out dirty because of the write hit.
	if v.Addr != 0x3000 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty 0x3000", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Fill(0x6000, true)
	present, dirty := c.Invalidate(0x6000)
	if !present || !dirty {
		t.Fatalf("invalidate = (%t,%t), want (true,true)", present, dirty)
	}
	if c.Probe(0x6000) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x6000)
	if present {
		t.Fatal("second invalidate reported present")
	}
}

func TestFillRefreshExisting(t *testing.T) {
	c := smallCache()
	c.Fill(0x8000, false)
	v := c.Fill(0x8000, true) // refresh, now dirty
	if v.Valid {
		t.Fatalf("refresh produced a victim: %+v", v)
	}
	_, dirty := c.Invalidate(0x8000)
	if !dirty {
		t.Fatal("refresh with dirty=true did not dirty the line")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := smallCache()
	c.Fill(0xA000, false)
	c.Access(0xA000, false)
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("stats not cleared")
	}
	if !c.Probe(0xA000) {
		t.Fatal("contents cleared by ResetStats")
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	if c.MissRate() != 0 {
		t.Fatal("miss rate nonzero with no accesses")
	}
	c.Access(0x1000, false) // miss
	c.Fill(0x1000, false)
	c.Access(0x1000, false) // hit
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := smallCache()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		addr := uint64(rng.Intn(1 << 20))
		if !c.Access(addr, rng.Intn(2) == 0) {
			c.Fill(addr, rng.Intn(2) == 0)
		}
	}
	if c.ValidLines() > 8 {
		t.Fatalf("valid lines %d exceed capacity 8", c.ValidLines())
	}
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	New(config.Cache{SizeBytes: 3 * 64, Assoc: 1, LineSize: 64})
}

// Property: no set ever holds two lines with the same tag, and probing any
// address just filled succeeds.
func TestQuickNoDuplicateTags(t *testing.T) {
	c := New(config.Cache{SizeBytes: 2 << 10, Assoc: 4, LineSize: 64})
	f := func(addrs []uint16, writes []bool) bool {
		for i, a := range addrs {
			addr := uint64(a) << 4
			w := i < len(writes) && writes[i]
			if !c.Access(addr, w) {
				c.Fill(addr, w)
			}
			if !c.Probe(addr) {
				return false
			}
			if c.DuplicateTags() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a victim reported by Fill was present before and absent after,
// and the filled line is always present after.
func TestQuickVictimConsistency(t *testing.T) {
	c := smallCache()
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a) << 6
			before := c.Probe(addr)
			v := c.Fill(addr, false)
			if before && v.Valid && v.Addr == addr {
				return false // refreshing must not evict itself
			}
			if v.Valid && c.Probe(v.Addr) && v.Addr != addr {
				return false // victim still present
			}
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	// The reconstructed victim address must map to the same set and tag
	// as the original.
	c := New(config.Cache{SizeBytes: 4 << 10, Assoc: 1, LineSize: 64})
	addr := uint64(0xDEAD40)
	c.Fill(addr, false)
	conflict := addr + 4<<10 // same set, different tag (direct-mapped)
	v := c.Fill(conflict, false)
	if !v.Valid || v.Addr != addr&^63 {
		t.Fatalf("victim addr %#x, want %#x", v.Addr, addr&^63)
	}
}
