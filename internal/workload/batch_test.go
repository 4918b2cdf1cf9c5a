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
	PC: ^uint64(0), Addr: ^uint64(0), Target: ^uint64(0),
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
	for _, p := range boundaryProfiles() {
		batchesMatch(t, &p, 42, batchSizes(rand.New(rand.NewSource(7))), 2*ChunkLen+5000, false)
	}
}

// FuzzBatchBoundaryInvariance is TestBatchBoundaryInvariance with the
// profile, the seed and the batch sizes as input, on the full and on the
// functional stream. Each three bytes of sizes (little-endian) are one
// batch of 1 to ChunkLen+1 instructions and each byte left over one of 1
// to 256; the sizes repeat until the stream is one chunk reset in.
func FuzzBatchBoundaryInvariance(f *testing.F) {
	f.Add(uint8(1), int64(1), []byte{}) // the named regimes are in testdata/fuzz
	profiles := boundaryProfiles()
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, sizes []byte) {
		var batches []int
		for ; len(sizes) >= 3; sizes = sizes[3:] {
			v := int(sizes[0]) | int(sizes[1])<<8 | int(sizes[2])<<16
			batches = append(batches, 1+v%(ChunkLen+1))
		}
		for _, b := range sizes {
			batches = append(batches, 1+int(b))
		}
		if len(batches) == 0 {
			batches = []int{1}
		}
		next := func() func() int {
			i := -1
			return func() int {
				i++
				return batches[i%len(batches)]
			}
		}
		p := &profiles[int(pi)%len(profiles)]
		batchesMatch(t, p, seed, next(), ChunkLen+5000, false)
		batchesMatch(t, p, seed, next(), ChunkLen+5000, true)
	})
}

// batchesMatch reads the first total instructions of p's thread 0 (of 2
// when p is multi-threaded) in batches of next() slots and fails t unless
// they equal the one-by-one stream: the full stream, or with functional
// its functional twin, which carries the full stream's instructions
// without register operands. Only the end of a bounded stream may cut a
// batch short.
func batchesMatch(t *testing.T, p *Profile, seed int64, next func() int, total int, functional bool) {
	t.Helper()
	threads := 1
	if p.MultiThreaded() {
		threads = 2
	}
	one := byOne(New(p, 0, threads, seed))
	bat := New(p, 0, threads, seed)
	if functional {
		bat.Functional()
	}
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
			if functional {
				want = functionalOf(want)
			}
			if !ok || b[i] != want {
				t.Fatalf("%s (functional %v): instruction %d (slot %d of a %d-slot batch):\nbatched: %+v\n by one: %+v (ok=%v)",
					p.Name, functional, pos+i, i, len(b), b[i], want, ok)
			}
		}
		pos += k
		if k < len(b) {
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
