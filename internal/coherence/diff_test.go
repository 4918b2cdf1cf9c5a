package coherence

import (
	"math/rand"
	"testing"
)

// draws is the differential test's source of choices: the fuzzer's bytes
// first, so that mutating them moves the machine shape and the head of the
// traffic directly, then a seeded generator for the rest.
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

// checkMatchesReference drives a table-backed protocol and a map-backed
// reference (ref_test.go) through the same random reads, writes and
// evictions and compares everything an engine shows: every Result, the
// line's state in every core, its holder count and the traffic counters
// after every call, the invariant check after every sixteenth. The
// "directory" case runs NewMESI, which memhier builds for a directory
// machine, against the home-node bookkeeping of an owner and a sharer
// bitmap. Core counts sit on both sides of the state vector's word size
// (16 cores a word) and at the sharer bitmap's width; the table starts far
// below the number of lines in play, so it grows under the traffic, and
// evictions empty lines out of it.
func checkMatchesReference(t *testing.T, d *draws) {
	cores := []int{1, 2, 4, 8, 17, 64}[d.n(6)]
	hint := []int{0, 4, 4096}[d.n(3)]
	var got, ref engine
	var name string
	switch d.n(3) {
	case 0:
		name, got, ref = "moesi", New(cores, hint), newRefProtocol(cores)
	case 1:
		name, got, ref = "mesi", NewMESI(cores, hint), newRefMESI(cores)
	default:
		name, got, ref = "directory", NewMESI(cores, hint), newRefDirectory(cores)
	}
	lines := 1 + d.n(200)
	// hot narrows most of the traffic onto a few lines, so that sharing,
	// upgrades and interventions happen and not just cold misses.
	hot := 1 + d.n(4)
	for op := 0; op < 4000; op++ {
		core := d.n(cores)
		l := d.n(lines)
		if d.n(4) != 0 {
			l %= hot
		}
		// Multiples of a large power of two collide after the table's
		// multiplicative hash as neighbouring lines do not.
		line := uint64(l) << (6 + uint(l&1)*40)
		var what string
		switch d.n(8) {
		case 0, 1, 2:
			what = "Read"
			if g, r := got.Read(core, line), ref.Read(core, line); g != r {
				t.Fatalf("%s/%d op %d: Read(%d, %#x) = %+v, reference %+v", name, cores, op, core, line, g, r)
			}
		case 3, 4:
			what = "Write"
			if g, r := got.Write(core, line), ref.Write(core, line); g != r {
				t.Fatalf("%s/%d op %d: Write(%d, %#x) = %+v, reference %+v", name, cores, op, core, line, g, r)
			}
		case 5, 6:
			what = "Evict"
			if g, r := got.Evict(core, line), ref.Evict(core, line); g != r {
				t.Fatalf("%s/%d op %d: Evict(%d, %#x) = %v, reference %v", name, cores, op, core, line, g, r)
			}
		default:
			what = "ResetStats"
			if d.n(50) == 0 {
				got.ResetStats()
				ref.ResetStats()
			}
		}
		for c := 0; c < cores; c++ {
			if g, r := got.State(c, line), ref.State(c, line); g != r {
				t.Fatalf("%s/%d op %d: after %s(%d, %#x) core %d is %v, reference %v", name, cores, op, what, core, line, c, g, r)
			}
		}
		if g, r := got.Holders(line), ref.Holders(line); g != r {
			t.Fatalf("%s/%d op %d: after %s(%d, %#x) %d holders, reference %d", name, cores, op, what, core, line, g, r)
		}
		if g, r := got.Stats(), ref.Stats(); g != r {
			t.Fatalf("%s/%d op %d: after %s(%d, %#x) stats %+v, reference %+v", name, cores, op, what, core, line, g, r)
		}
		if op%16 != 0 {
			continue // the invariant check walks every tracked line
		}
		if g, r := got.CheckInvariants(), ref.CheckInvariants(); g != r {
			t.Fatalf("%s/%d op %d: after %s(%d, %#x) invariants %q, reference %q", name, cores, op, what, core, line, g, r)
		}
	}
}

func TestCoherenceMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkMatchesReference(t, &draws{rng: rand.New(rand.NewSource(seed))})
	}
}

func FuzzCoherenceMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{}) // the named shapes are in testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64, head []byte) {
		if len(head) > 4096 {
			head = head[:4096]
		}
		checkMatchesReference(t, &draws{data: head, rng: rand.New(rand.NewSource(seed))})
	})
}

// TestTablesDropUnheldLines: a line every holder evicted leaves no entry
// behind in either protocol's table, whatever the order of evictions.
func TestTablesDropUnheldLines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, mesi := New(17, 8), NewMESI(17, 8)
	for round := 0; round < 50; round++ {
		for i := 0; i < 300; i++ {
			core, line := rng.Intn(17), uint64(rng.Intn(64))<<6
			if rng.Intn(3) == 0 {
				p.Write(core, line)
				mesi.Write(core, line)
			} else {
				p.Read(core, line)
				mesi.Read(core, line)
			}
		}
		for _, core := range rng.Perm(17) {
			for _, l := range rng.Perm(64) {
				p.Evict(core, uint64(l)<<6)
				mesi.Evict(core, uint64(l)<<6)
			}
		}
		if p.lines.Len() != 0 || mesi.lines.Len() != 0 {
			t.Fatalf("round %d: %d MOESI and %d MESI lines tracked with no holder", round, p.lines.Len(), mesi.lines.Len())
		}
	}
}
