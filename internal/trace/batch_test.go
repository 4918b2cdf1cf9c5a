package trace

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// synthetic returns a deterministic instruction sequence for equivalence
// tests.
func synthetic(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	rng := rand.New(rand.NewSource(11))
	for i := range out {
		out[i] = isa.Inst{
			Class: isa.Class(rng.Intn(int(isa.NumClasses))),
			PC:    uint64(0x400000 + 4*i),
			Addr:  uint64(rng.Int63()),
			Seq:   uint64(i),
		}
	}
	return out
}

// oneAtATime hands out one instruction per call however much room the
// caller offers: the shortest reads the Stream contract allows, from a type
// the package does not know.
type oneAtATime struct{ s Stream }

func (o oneAtATime) NextBatch(buf []isa.Inst) int {
	if len(buf) > 1 {
		buf = buf[:1]
	}
	return o.s.NextBatch(buf)
}

// TestBatchedMatchesNext: for every stream shape, draining via NextBatch
// with random chunk sizes must yield exactly the sequence a Buffered reader
// yields one Next at a time.
func TestBatchedMatchesNext(t *testing.T) {
	insts := synthetic(10_000)
	shapes := map[string]func() Stream{
		"slice":          func() Stream { return NewSliceStream(insts) },
		"limit-slice":    func() Stream { return NewLimit(NewSliceStream(insts), 7_777) },
		"limit-overlong": func() Stream { return NewLimit(NewSliceStream(insts), len(insts)+5) },
		"nested-limit":   func() Stream { return NewLimit(NewLimit(NewSliceStream(insts), 9_000), 8_000) },
		"limit-zero":     func() Stream { return NewLimit(NewSliceStream(insts), 0) },
		// Over a stream that hands out only the next instruction: a short
		// count is not the end, to a reader, to a Limit or behind Batched.
		"adapter":         func() Stream { return oneAtATime{NewSliceStream(insts)} },
		"limit-nextonly":  func() Stream { return NewLimit(oneAtATime{NewSliceStream(insts)}, 7_777) },
		"adapter-batched": func() Stream { return Batched(oneAtATime{NewSliceStream(insts)}) },
	}
	want := map[string]int{
		"slice": 10_000, "limit-slice": 7_777, "limit-nextonly": 7_777, "adapter": 10_000,
		"limit-overlong": 10_000, "nested-limit": 8_000, "limit-zero": 0, "adapter-batched": 10_000,
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			byNext := drainNext(mk())
			if len(byNext) != want[name] {
				t.Fatalf("%d insts via Next, want %d", len(byNext), want[name])
			}
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 5; trial++ {
				got := drainBatch(mk(), rng)
				if len(got) != len(byNext) {
					t.Fatalf("trial %d: %d insts via NextBatch, %d via Next", trial, len(got), len(byNext))
				}
				for i := range got {
					if got[i] != insts[i] || byNext[i] != insts[i] {
						t.Fatalf("trial %d: inst %d differs: %+v vs %+v, source %+v", trial, i, got[i], byNext[i], insts[i])
					}
				}
			}
		})
	}
}

func drainNext(s Stream) []isa.Inst {
	var out []isa.Inst
	rd := NewBuffered(s, 300)
	for in, ok := rd.Next(); ok; in, ok = rd.Next() {
		out = append(out, in)
	}
	if _, ok := rd.Next(); ok {
		panic("a Buffered reader resumed after its end")
	}
	return out
}

func drainBatch(s Stream, rng *rand.Rand) []isa.Inst {
	var out []isa.Inst
	buf := make([]isa.Inst, 512)
	for {
		n := 1 + rng.Intn(len(buf))
		k := s.NextBatch(buf[:n])
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

// TestBatchedMixedConsumption: consumers that take turns on one source —
// bare NextBatch calls, a Limit read to its end through a Buffered reader,
// Record — see the underlying sequence exactly once and in order. A Limit
// never reads past its end however large its reader's chunk, which is what
// lets warm-up, then a measured unit, then the next fast-forward continue
// from one stream.
func TestBatchedMixedConsumption(t *testing.T) {
	insts := synthetic(5_000)
	src := NewSliceStream(insts)
	rng := rand.New(rand.NewSource(9))
	var out []isa.Inst
	buf := make([]isa.Inst, 64)
	for ended := false; !ended; {
		before := len(out)
		want := 1 + rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			want = min(want, len(buf))
			out = append(out, buf[:src.NextBatch(buf[:want])]...)
		case 1:
			out = append(out, drainNext(NewLimit(src, want))...)
		case 2:
			out = append(out, Record(src, want)...)
		}
		ended = len(out)-before < want
	}
	if len(out) != len(insts) {
		t.Fatalf("drained %d insts, want %d", len(out), len(insts))
	}
	for i := range out {
		if out[i] != insts[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
}

// TestRecordUsesWholeStream: Record must stop at either bound.
func TestRecordBounds(t *testing.T) {
	insts := synthetic(100)
	if got := Record(NewSliceStream(insts), 40); len(got) != 40 {
		t.Fatalf("Record(.., 40) = %d insts", len(got))
	}
	if got := Record(NewSliceStream(insts), 500); len(got) != 100 {
		t.Fatalf("Record(.., 500) = %d insts", len(got))
	}
	if got := Record(oneAtATime{NewSliceStream(insts)}, 500); len(got) != 100 {
		t.Fatalf("Record(short reads, 500) = %d insts", len(got))
	}
}
