package cache

import (
	"math/rand"
	"testing"
)

// refMSHR is the parent's MSHR, kept verbatim (less its two counters, which
// nothing read) as the reference the O(1) file is compared against: a fixed
// array scanned on every call.
type refMSHR struct {
	pending []mshrEntry
	live    int
}

func (m *refMSHR) expire(now int64) {
	for i := 0; i < m.live; {
		if m.pending[i].completion <= now {
			m.live--
			m.pending[i] = m.pending[m.live]
			continue
		}
		i++
	}
}

func (m *refMSHR) Lookup(lineAddr uint64, now int64) (completion int64, ok bool) {
	m.expire(now)
	for i := 0; i < m.live; i++ {
		if m.pending[i].line == lineAddr {
			return m.pending[i].completion, true
		}
	}
	return 0, false
}

func (m *refMSHR) Insert(lineAddr uint64, completion int64, now int64) bool {
	m.expire(now)
	for i := 0; i < m.live; i++ {
		if m.pending[i].line == lineAddr {
			return true
		}
	}
	if m.live == len(m.pending) {
		return false
	}
	m.pending[m.live] = mshrEntry{line: lineAddr, completion: completion}
	m.live++
	return true
}

func (m *refMSHR) Outstanding(now int64) int {
	m.expire(now)
	return m.live
}

func (m *refMSHR) Reset() { m.live = 0 }

// mapMSHR is the map-based file the array replaced, the second opinion of
// TestMSHRDifferential.
type mapMSHR struct {
	entries int
	pending map[uint64]int64
}

func (m *mapMSHR) expire(now int64) {
	for a, t := range m.pending {
		if t <= now {
			delete(m.pending, a)
		}
	}
}
func (m *mapMSHR) Lookup(line uint64, now int64) (int64, bool) {
	m.expire(now)
	c, ok := m.pending[line]
	return c, ok
}
func (m *mapMSHR) Insert(line uint64, completion, now int64) bool {
	m.expire(now)
	if _, ok := m.pending[line]; ok {
		return true
	}
	if len(m.pending) >= m.entries {
		return false
	}
	m.pending[line] = completion
	return true
}
func (m *mapMSHR) Outstanding(now int64) int { m.expire(now); return len(m.pending) }

func TestMSHRDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		ref := &mapMSHR{entries: n, pending: map[uint64]int64{}}
		got := NewMSHR(n)
		now := int64(0)
		for op := 0; op < 2000; op++ {
			now += int64(rng.Intn(3))
			// Occasionally restart the clock: the sampling harness
			// re-times units from zero over a persistent hierarchy, so
			// expiry must be permanent, not relative to the current now.
			if rng.Intn(200) == 0 {
				now = 0
			}
			line := uint64(rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				rc, rok := ref.Lookup(line, now)
				gc, gok := got.Lookup(line, now)
				if rok != gok || (rok && rc != gc) {
					t.Fatalf("trial %d op %d: Lookup(%d,%d) ref=(%d,%v) got=(%d,%v)", trial, op, line, now, rc, rok, gc, gok)
				}
			case 1:
				comp := now + int64(rng.Intn(20))
				r := ref.Insert(line, comp, now)
				g := got.Insert(line, comp, now)
				if r != g {
					t.Fatalf("trial %d op %d: Insert(%d,%d,%d) ref=%v got=%v", trial, op, line, comp, now, r, g)
				}
			case 2:
				if r, g := ref.Outstanding(now), got.Outstanding(now); r != g {
					t.Fatalf("trial %d op %d: Outstanding(%d) ref=%d got=%d", trial, op, now, r, g)
				}
			}
		}
	}
}

// draws is a differential test's source of choices: the fuzzer's bytes
// first, so that mutating them moves the head of the run directly, then a
// seeded generator for the rest.
type draws struct {
	data []byte
	rng  *rand.Rand
}

// n returns a choice in [0, max).
func (d *draws) n(max int) int {
	if len(d.data) > 0 && max <= 256 {
		b := d.data[0]
		d.data = d.data[1:]
		return int(b) % max
	}
	return d.rng.Intn(max)
}

// checkMSHRMatchesReference drives the MSHR and the parent's array file
// through the same calls under the three clocks the simulator has: one that
// advances (a timed run), one frozen at zero while far more distinct lines
// miss than the file holds (functional warm-up, whose first misses stay
// pinned), and one that restarts from zero over a file that still holds
// entries (measurement after warm-up, the sampling harness). Results and
// live sets must agree after every call.
func checkMSHRMatchesReference(t *testing.T, d *draws) {
	entries := []int{1, 2, 5, 8, 32}[d.n(5)]
	got, ref := NewMSHR(entries), &refMSHR{pending: make([]mshrEntry, entries)}
	lines := 1 + d.n(4*entries+8)
	now, frozen := int64(0), 0
	for op := 0; op < 3000; op++ {
		switch {
		case frozen > 0:
			frozen--
		case d.n(100) == 0:
			now, frozen = 0, 2*entries+d.n(200)
		case d.n(60) == 0:
			now = 0
		default:
			now += int64(d.n(8))
		}
		// Multiples of a large power of two collide in the filter's hash
		// as neighbouring lines do not.
		line := uint64(d.n(lines)) << (6 + uint(d.n(2))*40)
		var what string
		switch d.n(16) {
		case 0:
			what = "Outstanding"
			if g, r := got.Outstanding(now), ref.Outstanding(now); g != r {
				t.Fatalf("op %d: Outstanding(%d) = %d, reference %d", op, now, g, r)
			}
		case 1:
			if d.n(8) == 0 {
				what = "Reset"
				got.Reset()
				ref.Reset()
			}
		case 2, 3, 4, 5, 6, 7:
			what = "Lookup"
			gc, gok := got.Lookup(line, now)
			rc, rok := ref.Lookup(line, now)
			if gc != rc || gok != rok {
				t.Fatalf("op %d: Lookup(%#x, %d) = (%d, %v), reference (%d, %v)", op, line, now, gc, gok, rc, rok)
			}
		default:
			what = "Insert"
			completion := now + int64(d.n(40))
			if g, r := got.Insert(line, completion, now), ref.Insert(line, completion, now); g != r {
				t.Fatalf("op %d: Insert(%#x, %d, %d) = %v, reference %v", op, line, completion, now, g, r)
			}
		}
		if got.live != ref.live {
			t.Fatalf("op %d: %d live entries after %s, reference %d", op, got.live, what, ref.live)
		}
		live := make(map[mshrEntry]bool, ref.live)
		for _, e := range ref.pending[:ref.live] {
			live[e] = true
		}
		for _, e := range got.pending[:got.live] {
			if !live[e] {
				t.Fatalf("op %d: entry %+v live after %s, not in the reference", op, e, what)
			}
		}
	}
}

func TestMSHRMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkMSHRMatchesReference(t, &draws{rng: rand.New(rand.NewSource(seed))})
	}
}

func FuzzMSHRMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{}) // the named regimes are in testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64, head []byte) {
		if len(head) > 4096 {
			head = head[:4096]
		}
		checkMSHRMatchesReference(t, &draws{data: head, rng: rand.New(rand.NewSource(seed))})
	})
}

// TestMSHRWarmupRegimePinsFirstMisses pins the frozen-clock behaviour the
// warmed state depends on: under a clock that never advances the file keeps
// the first misses it was offered, refuses every later line, merges a
// repeat of a pinned one, and still holds all of them when the clock
// restarts for measurement.
func TestMSHRWarmupRegimePinsFirstMisses(t *testing.T) {
	const entries = 32
	m := NewMSHR(entries)
	for i := uint64(0); i < 1000; i++ {
		line := i << 6
		if _, pending := m.Lookup(line, 0); pending {
			t.Fatalf("line %d pending before its first miss", i)
		}
		if got, want := m.Insert(line, 200+int64(i), 0), i < entries; got != want {
			t.Fatalf("Insert of distinct line %d = %v, want %v", i, got, want)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		completion, pending := m.Lookup(i<<6, 0)
		if pending != (i < entries) || pending && completion != 200+int64(i) {
			t.Fatalf("line %d: Lookup = (%d, %v)", i, completion, pending)
		}
	}
	if !m.Insert(5<<6, 999, 0) {
		t.Fatal("repeat miss on a pinned line did not merge")
	}
	if n := m.Outstanding(0); n != entries {
		t.Fatalf("%d entries survive into measurement, want %d", n, entries)
	}
	if n := m.Outstanding(215); n != 16 {
		t.Fatalf("%d entries outstanding at 215, want 16", n)
	}
}
