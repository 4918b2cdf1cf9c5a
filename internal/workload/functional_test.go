package workload

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// functionalOf is what a functional stream carries of a full-stream
// instruction: everything but the register operands.
func functionalOf(in isa.Inst) isa.Inst {
	if !in.Class.IsSync() {
		in.Src1, in.Src2, in.Dst = isa.RegNone, isa.RegNone, isa.RegNone
	}
	return in
}

// TestFunctionalStreamMatchesFull: a functional stream is the full stream
// without its register operands — Seq, PC, Class, Addr, Taken, Target and
// SyncID are equal instruction by instruction — for every shipped profile
// (and the corner-case ones of the boundary test), single- and
// multi-threaded, whatever the batch sizes, across a chunk reset and
// across a SkipTo.
func TestFunctionalStreamMatchesFull(t *testing.T) {
	const head, skip, tail = 20_000, ChunkLen - 19_000, 30_000
	profiles := append(append(SPEC(), PARSEC()...), boundaryProfiles()[8:]...)
	for i := range profiles {
		p := &profiles[i]
		for _, threads := range []int{1, 4} {
			thread := threads - 1
			full := New(p, thread, threads, 42)
			fullRd := byOne(full)
			fn := New(p, thread, threads, 42).Functional()
			next := batchSizes(rand.New(rand.NewSource(int64(i))))
			buf := make([]isa.Inst, ChunkLen+1)
			compare := func(n int) {
				for pos := 0; pos < n; {
					b := buf[:min(next(), n-pos)]
					for j := range b {
						b[j] = poison
					}
					before := fn.seq
					k := fn.NextBatch(b)
					for j := 0; j < k; j++ {
						want, ok := fullRd.Next()
						if !ok || b[j] != functionalOf(want) {
							t.Fatalf("%s/%d: instruction %d:\nfunctional: %+v\n      full: %+v (ok=%v)",
								p.Name, threads, before+uint64(j), b[j], want, ok)
						}
					}
					pos += k
					if k < len(b) {
						if _, ok := fullRd.Next(); ok {
							t.Fatalf("%s/%d: functional stream ended at %d, full stream goes on", p.Name, threads, fn.seq)
						}
						return
					}
				}
			}
			compare(head)
			// Past the first chunk reset, where a skippable stream
			// re-derives its state and the others replay.
			to := full.seq + skip
			if err := full.SkipTo(to); err != nil {
				t.Fatal(err)
			}
			if err := fn.SkipTo(to); err != nil {
				t.Fatal(err)
			}
			compare(tail)
		}
	}
}
