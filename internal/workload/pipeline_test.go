package workload

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TestPipelineMatchesSource: a generator read through trace.Pipeline is the
// generator read directly, instruction for instruction — for every shipped
// SPEC and PARSEC profile, single- and multi-threaded, as a full and as a
// functional stream (both behind one producer, as in a run), whatever the
// consumer's batch sizes, up to and including the end of a Limit and of a TotalWork-bounded stream, after
// which every call keeps returning nothing.
func TestPipelineMatchesSource(t *testing.T) {
	// Three rings and a bit: the ring wraps, and the stream ends mid-chunk.
	const budget = 50_003
	profiles := append(SPEC(), PARSEC()...)
	for i := range profiles {
		p := profiles[i]
		for _, threads := range []int{1, 4} {
			thread := threads - 1
			// SPEC streams end at a Limit, PARSEC streams at the thread's
			// share of the work.
			bounded := func(g *Generator) trace.Stream {
				if p.MultiThreaded() {
					return g
				}
				return trace.NewLimit(g, budget)
			}
			if p.MultiThreaded() {
				p.TotalWork = budget * uint64(threads)
			}
			direct := []*trace.Buffered{
				trace.NewBuffered(bounded(New(&p, thread, threads, 42)), 512),
				trace.NewBuffered(bounded(New(&p, thread, threads, 42).Functional()), 512),
			}
			pipe, piped := trace.StartPipeline([]trace.Stream{
				bounded(New(&p, thread, threads, 42)),
				bounded(New(&p, thread, threads, 42).Functional()),
			}, false)
			for k, kind := range []string{"full", "functional"} {
				rng := rand.New(rand.NewSource(int64(i)))
				next := batchSizes(rng)
				buf := make([]isa.Inst, ChunkLen+1)
				pos := 0
				same := func(got isa.Inst) {
					t.Helper()
					want, ok := direct[k].Next()
					if !ok || got != want {
						t.Fatalf("%s/%d %s: instruction %d:\npipelined: %+v\n   direct: %+v (ok=%v)", p.Name, threads, kind, pos, got, want, ok)
					}
					pos++
				}
				for {
					b := buf[:next()]
					n := piped[k].NextBatch(b)
					for _, in := range b[:n] {
						same(in)
					}
					if n < len(b) {
						break
					}
				}
				if _, ok := direct[k].Next(); ok {
					t.Fatalf("%s/%d %s: pipelined stream ended at %d, its source goes on", p.Name, threads, kind, pos)
				}
				// A thread's share of the work is not exactly 1/threads.
				if pos < budget/2 {
					t.Fatalf("%s/%d %s: stream of %d instructions, expected about %d", p.Name, threads, kind, pos, budget)
				}
				for again := 0; again < 3; again++ {
					if piped[k].NextBatch(buf[:1]) != 0 || piped[k].NextBatch(buf[:7]) != 0 {
						t.Fatalf("%s/%d %s: stream resumed after its end", p.Name, threads, kind)
					}
				}
			}
			pipe.Close()
		}
	}
}
