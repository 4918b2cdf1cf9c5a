package workload

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// poison is what every buffer slot holds before NextBatch fills it: the
// emitter writes field by field, so a field it forgot would keep this.
var poison = isa.Inst{
	Seq: ^uint64(0), PC: ^uint64(0), Addr: ^uint64(0), Target: ^uint64(0),
	SyncID: 0xFFFF, Class: 0xEE, Src1: 0xEE, Src2: 0xEE, Dst: 0xEE, Taken: true,
}

// byOne reads g one instruction per NextBatch call. It never reads ahead,
// so between two reads the generator is where the reader is: its seq and
// draw counter can be inspected and it can be skipped.
func byOne(g *Generator) *trace.Buffered { return trace.NewBuffered(g, 1) }

// batchSizes yields the buffer sizes of the boundary test: the named
// ones first (ChunkLen+1 walks the cut through every offset of a chunk),
// then small random ones that land cuts inside block bodies, on
// terminators, on serializing instructions, inside kernel segments and
// between an instruction and the synchronization it queued.
func batchSizes(r *rand.Rand) func() int {
	fixed := []int{1, 3, 4096, ChunkLen + 1}
	return func() int {
		if len(fixed) > 0 {
			n := fixed[0]
			fixed = fixed[1:]
			return n
		}
		return 1 + r.Intn(40)
	}
}

// boundaryProfiles is every profile of TestStreamGoldensV3 plus the paths
// those leave out of a multi-instruction body run: kernel code without
// synchronization (every shipped kernel-mode profile has barriers, which
// pin the run length to one), a lock-heavy PARSEC profile, and a profile
// of corner cases (no power-of-two region, a region below one line, no
// dependence table, frequent serializing instructions).
func boundaryProfiles() []Profile {
	var ps []Profile
	for _, name := range []string{"gcc", "mcf", "swim", "art", "equake"} {
		ps = append(ps, *SPECByName(name))
	}
	for _, name := range []string{"blackscholes", "streamcluster", "fluidanimate"} {
		ps = append(ps, *PARSECByName(name))
	}
	kern := *PARSECByName("swaptions")
	kern.Name, kern.BarrierEvery, kern.TotalWork, kern.SerializeEvery = "kernel-only", 0, 0, 300
	odd := Profile{
		Name: "corner-cases",
		Mix:  Mix{IntALU: 0.3, IntMul: 0.1, IntDiv: 0.05, FP: 0.1, Load: 0.25, Store: 0.1, Branch: 0.1, Call: 0.2},
		Regions: []Region{
			{Bytes: 24 << 10, Prob: 0.5}, {Bytes: 3000, Prob: 0.2, Stride: 24}, {Bytes: 100, Prob: 0.1, WriteFrac: 0.5},
			{Bytes: 10, Prob: 0.1, Stride: 8}, {Bytes: 1 << 20, Prob: 0.1, Stride: 64, WriteFrac: 0.3},
		},
		PointerChase: 0.3, DepDistMean: 1, Funcs: 5, BlocksPerFunc: 9, BlockLenMean: 3,
		LoopFrac: 0.3, BiasedFrac: 0.3, LoopTripMean: 5, BiasedProb: 0.9, RandomProb: 0.5,
		SerializeEvery: 7, SystemFrac: 0.3,
	}
	return append(ps, kern, odd)
}

// TestBatchBoundaryInvariance: where NextBatch calls cut the stream never
// shows in it. The concatenation of batches of arbitrary sizes equals the
// one-by-one stream, instruction for instruction, across chunk resets.
func TestBatchBoundaryInvariance(t *testing.T) {
	const total = 2*ChunkLen + 5000
	for _, p := range boundaryProfiles() {
		threads := 1
		if p.MultiThreaded() {
			threads = 2
		}
		one := byOne(New(&p, 0, threads, 42))
		bat := New(&p, 0, threads, 42)
		next := batchSizes(rand.New(rand.NewSource(7)))
		buf := make([]isa.Inst, ChunkLen+1)
		pos := 0
		for pos < total {
			b := buf[:next()]
			for i := range b {
				b[i] = poison
			}
			k := bat.NextBatch(b)
			for i := 0; i < k; i++ {
				want, ok := one.Next()
				if !ok || b[i] != want {
					t.Fatalf("%s: instruction %d (slot %d of a %d-slot batch):\nbatched: %+v\n by one: %+v (ok=%v)",
						p.Name, pos+i, i, len(b), b[i], want, ok)
				}
			}
			pos += k
			if k < len(b) {
				// Only the end of a bounded stream may cut a batch short.
				if _, ok := one.Next(); ok {
					t.Fatalf("%s: batch returned %d of %d slots at %d but the stream goes on", p.Name, k, len(b), pos)
				}
				if bat.NextBatch(b) != 0 {
					t.Fatalf("%s: stream resumed after its end", p.Name)
				}
				break
			}
		}
		if pos < ChunkLen && p.TotalWork == 0 {
			t.Fatalf("%s: unbounded stream ended at %d", p.Name, pos)
		}
	}
}

// TestNextBatchAllocsNothing: the emitter writes into the caller's buffer
// and keeps its queues in fixed storage, synchronization included.
func TestNextBatchAllocsNothing(t *testing.T) {
	for _, p := range []*Profile{SPECByName("gcc"), PARSECByName("fluidanimate")} {
		q := *p
		q.TotalWork = 0 // unbounded, so every run has instructions to emit
		g := New(&q, 0, 2, 42)
		buf := make([]isa.Inst, 4096)
		if avg := testing.AllocsPerRun(20, func() {
			if g.NextBatch(buf) != len(buf) {
				t.Fatalf("%s: short batch from an unbounded stream", q.Name)
			}
		}); avg != 0 {
			t.Errorf("%s: NextBatch allocates %.1f times per call", q.Name, avg)
		}
	}
}
