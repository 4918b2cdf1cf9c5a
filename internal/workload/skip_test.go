package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// skipMatches asserts the core v3 contract: SkipTo(n) followed by m
// instructions is byte-identical to generating n+m instructions straight
// and discarding the first n. The straight side is read one instruction
// at a time, the skipped side in batches of varying size, so the test also
// covers a replay that ends anywhere inside a block followed by batch
// cuts anywhere after it.
func skipMatches(t testing.TB, p *Profile, seed int64, slot int, n uint64, m int) {
	t.Helper()
	a := byOne(NewSlot(p, 0, 1, seed, slot))
	b := NewSlot(p, 0, 1, seed, slot)
	for i := uint64(0); i < n; i++ {
		if _, ok := a.Next(); !ok {
			break
		}
	}
	if err := b.SkipTo(n); err != nil {
		t.Fatalf("%s seed=%d slot=%d SkipTo(%d): %v", p.Name, seed, slot, n, err)
	}
	buf := make([]isa.Inst, 64)
	for i, size := 0, 1; i < m; size = (size+2)%len(buf) + 1 {
		k := b.NextBatch(buf[:min(size, m-i)])
		for j := 0; j < k; j++ {
			x, ok := a.Next()
			if !ok || x != buf[j] {
				t.Fatalf("%s seed=%d slot=%d: stream diverges %d after SkipTo(%d):\nstraight: %+v (ok=%v)\nskipped:  %+v",
					p.Name, seed, slot, i+j, n, x, ok, buf[j])
			}
		}
		i += k
		if k == 0 {
			if _, ok := a.Next(); ok {
				t.Fatalf("%s seed=%d slot=%d: skipped stream ends %d after SkipTo(%d), straight stream goes on", p.Name, seed, slot, i, n)
			}
			break
		}
	}
}

// TestSkipToConformance drives SkipTo across chunk boundaries, at exact
// boundaries, within the first chunk, and past large distances, on both
// the O(1) path (single-threaded profiles) and the sequential fallback
// (synchronization profiles).
func TestSkipToConformance(t *testing.T) {
	positions := []uint64{0, 1, 17, ChunkLen - 1, ChunkLen, ChunkLen + 1,
		3*ChunkLen - 5, 5 * ChunkLen, 7*ChunkLen + 1234}
	for _, name := range []string{"gcc", "mcf", "swim", "art"} {
		p := SPECByName(name)
		if !New(p, 0, 1, 1).Skippable() {
			t.Fatalf("%s: single-threaded profile not skippable", name)
		}
		for _, n := range positions {
			skipMatches(t, p, 42, 0, n, 2000)
		}
	}
	// Slots must not perturb the skip contract (the slot never enters a
	// draw).
	skipMatches(t, SPECByName("gcc"), 42, 5, 2*ChunkLen+100, 2000)
	// Synchronization profiles use the sequential fallback.
	for _, name := range []string{"streamcluster", "fluidanimate"} {
		p := PARSECByName(name)
		if New(p, 0, 2, 1).Skippable() {
			t.Fatalf("%s: synchronization profile reported skippable", name)
		}
		skipMatches(t, p, 42, 0, ChunkLen+77, 2000)
	}
}

// TestSkipToIsO1 asserts the mechanism, not just the result: a skip deep
// into the stream must replay fewer than ChunkLen instructions, which it
// proves by consuming no budget beyond the chunk remainder.
func TestSkipToIsO1(t *testing.T) {
	p := SPECByName("gcc")
	g := New(p, 0, 1, 42)
	const target = 1_000_000_000 // a billion instructions: sequential replay would take minutes
	if err := g.SkipTo(target); err != nil {
		t.Fatal(err)
	}
	in, ok := byOne(g).Next()
	if !ok {
		t.Fatal("stream ended after skip")
	}
	if in.Seq != target {
		t.Fatalf("Seq after SkipTo(%d) = %d", target, in.Seq)
	}
}

// TestSkipToBackward: skippable streams can skip backward (state is a
// pure function of position); synchronization streams must refuse.
func TestSkipToBackward(t *testing.T) {
	g := New(SPECByName("gcc"), 0, 1, 42)
	trace.Record(g, 3*ChunkLen)
	if err := g.SkipTo(10); err != nil {
		t.Fatal(err)
	}
	want := New(SPECByName("gcc"), 0, 1, 42)
	want.SkipTo(10)
	x, y := trace.Record(g, 100), trace.Record(want, 100)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("backward skip diverges at %d", i)
		}
	}

	s := PARSECByName("streamcluster")
	h := New(s, 0, 2, 42)
	trace.Record(h, 100)
	if err := h.SkipTo(5); err == nil {
		t.Fatal("backward skip on a synchronization stream succeeded")
	}
}

// TestDrawBudget audits the per-instruction draw discipline the counter
// partitioning depends on: no synthesis path may consume more than
// drawStride draws.
func TestDrawBudget(t *testing.T) {
	profiles := append(SPEC(), PARSEC()...)
	for i := range profiles {
		p := &profiles[i]
		for _, g := range []*Generator{New(p, 0, 2, 42), New(p, 0, 2, 42).Functional()} {
			rd := byOne(g)
			for i := 0; i < 50_000; i++ {
				before := g.seq
				_, ok := rd.Next()
				if !ok {
					break
				}
				if g.rng.ctr < before*drawStride {
					continue // pending-sync emission: no draws
				}
				if used := g.rng.ctr - before*drawStride; used > drawStride {
					t.Fatalf("%s (functional=%v): instruction %d consumed %d draws (budget %d)", p.Name, g.functional, before, used, drawStride)
				}
			}
		}
	}
}

// TestChunkResetKeepsStreamWellFormed: chunk boundaries are interior
// stream positions, and the instructions straddling them must stay
// valid (dense Seq, in-range classes, nonzero memory addresses).
func TestChunkResetKeepsStreamWellFormed(t *testing.T) {
	insts := trace.Record(New(SPECByName("gcc"), 0, 1, 42), 3*ChunkLen)
	if len(insts) != 3*ChunkLen {
		t.Fatal("stream ended")
	}
	for i, in := range insts {
		if in.Seq != uint64(i) {
			t.Fatalf("Seq %d at position %d", in.Seq, i)
		}
		if int(in.Class) >= isa.NumClasses {
			t.Fatalf("class %d out of range", in.Class)
		}
		if in.Class.IsMem() && in.Addr == 0 {
			t.Fatalf("zero address at %d", i)
		}
	}
}

// FuzzSkipAhead fuzzes the core v3 contract over (profile, seed, slot,
// n, m): SkipTo(n) then m instructions must be byte-identical to
// generating n+m straight and discarding the prefix. Runs under -race
// in CI.
func FuzzSkipAhead(f *testing.F) {
	f.Add(uint8(0), int64(42), uint8(0), uint32(0), uint16(500))
	f.Add(uint8(3), int64(7), uint8(2), uint32(ChunkLen), uint16(1000))
	f.Add(uint8(9), int64(-1), uint8(0), uint32(ChunkLen-1), uint16(2000))
	f.Add(uint8(30), int64(1), uint8(0), uint32(3*ChunkLen+17), uint16(300))
	f.Add(uint8(12), int64(1<<40), uint8(200), uint32(65537), uint16(4096))
	profiles := append(SPEC(), PARSEC()...)
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, slot uint8, n uint32, m uint16) {
		p := &profiles[int(pi)%len(profiles)]
		skipMatches(t, p, seed, int(slot)%MaxSlots, uint64(n)%200_000, int(m))
	})
}
