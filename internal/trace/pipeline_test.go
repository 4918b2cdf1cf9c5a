package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/isa"
)

// settleGoroutines waits for the goroutine count to come back to base: a
// goroutine that has closed its done channel is still counted for the
// instant it takes to return.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the pipeline started", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestPipelineServesEveryStream: one producer behind streams of every
// length around the chunk and ring sizes, read in a random interleaving
// of NextBatch calls of random sizes, one-instruction ones included. Each stream yields its
// source's instructions in order, ends where the source ends and stays
// ended.
func TestPipelineServesEveryStream(t *testing.T) {
	insts := synthetic(3*pipelineDepth*pipelineChunk + 17)
	lens := []int{0, 1, pipelineChunk - 1, pipelineChunk, pipelineChunk + 1, pipelineDepth * pipelineChunk, len(insts)}
	var srcs []Stream
	for _, n := range lens {
		srcs = append(srcs, NewLimit(NewSliceStream(insts), n))
	}
	base := runtime.NumGoroutine()
	p, out := StartPipeline(srcs, false)
	got := make([][]isa.Inst, len(out))
	ended := make([]bool, len(out))
	rng := rand.New(rand.NewSource(3))
	buf := make([]isa.Inst, 3*pipelineChunk)
	for live := len(out); live > 0; {
		i := rng.Intn(len(out))
		b := buf[:1+rng.Intn(len(buf))]
		if rng.Intn(2) == 0 {
			b = b[:1+rng.Intn(40)]
		}
		k := out[i].NextBatch(b)
		got[i] = append(got[i], b[:k]...)
		if k == len(b) {
			continue
		}
		// Only the end of the stream cuts a batch short.
		if len(got[i]) != lens[i] {
			t.Fatalf("stream %d ended after %d instructions, its source has %d", i, len(got[i]), lens[i])
		}
		if !ended[i] {
			ended[i] = true
			live--
		}
	}
	for i, g := range got {
		for j := range g {
			if g[j] != insts[j] {
				t.Fatalf("stream %d: instruction %d is %+v, the source has %+v", i, j, g[j], insts[j])
			}
		}
		if out[i].NextBatch(buf[:1]) != 0 || out[i].NextBatch(buf) != 0 {
			t.Fatalf("stream %d resumed after its end", i)
		}
	}
	p.Close()
	settleGoroutines(t, base)
}

// TestPipelineCloseReturns: Close stops the producer wherever the two sides
// stand — before the first read, in the middle of a stream, with a consumer
// that never reads — and can be called again. A closed stream reads as
// ended.
func TestPipelineCloseReturns(t *testing.T) {
	insts := synthetic(3 * pipelineDepth * pipelineChunk)
	cases := map[string]func(p *Pipeline, s BatchStream){
		"before the first read": func(p *Pipeline, s BatchStream) {},
		"mid-stream": func(p *Pipeline, s BatchStream) {
			buf := make([]isa.Inst, pipelineChunk+pipelineChunk/2)
			if k := s.NextBatch(buf); k != len(buf) {
				t.Fatalf("read %d of %d", k, len(buf))
			}
		},
		"ring full, nobody reading": func(p *Pipeline, s BatchStream) {
			// Wait until the producer has nothing left to fill.
			for len(p.req) > 0 {
				runtime.Gosched()
			}
		},
	}
	for name, use := range cases {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			p, out := StartPipeline([]Stream{NewSliceStream(insts), NewSliceStream(insts)}, false)
			use(p, out[0])
			p.Close()
			settleGoroutines(t, base)
			p.Close()
			if out[0].NextBatch(make([]isa.Inst, 1)) != 0 || out[1].NextBatch(make([]isa.Inst, 8)) != 0 {
				t.Fatal("a closed pipeline still yields instructions")
			}
		})
	}
}

// failing panics on its k-th NextBatch call and serves the slice before.
type failing struct {
	SliceStream
	calls, k int
}

func (f *failing) NextBatch(buf []isa.Inst) int {
	if f.calls++; f.calls == f.k {
		panic("generator bug")
	}
	return f.SliceStream.NextBatch(buf)
}

// TestPipelineForwardsSourcePanic: a source that panics while the producer
// fills its third chunk. The consumer reads the two chunks before it, then
// the read that needs the third raises the source's panic — its value and
// the producer's stack — and so does every read after. The other stream of
// the pipeline is served to its end, and Close returns.
func TestPipelineForwardsSourcePanic(t *testing.T) {
	insts := synthetic(2 * pipelineDepth * pipelineChunk)
	base := runtime.NumGoroutine()
	p, out := StartPipeline([]Stream{
		&failing{SliceStream: *NewSliceStream(insts), k: 3},
		NewSliceStream(insts),
	}, false)
	defer p.Close()

	read := func(buf []isa.Inst) (n int, raised *SourcePanic) {
		defer func() {
			if r := recover(); r != nil {
				raised = r.(*SourcePanic)
			}
		}()
		return out[0].NextBatch(buf), nil
	}
	buf := make([]isa.Inst, 2*pipelineChunk)
	if n, raised := read(buf); n != len(buf) || raised != nil {
		t.Fatalf("the chunks before the failure: read %d of %d, panic %v", n, len(buf), raised)
	}
	for i := range buf {
		if buf[i] != insts[i] {
			t.Fatalf("instruction %d differs from the source", i)
		}
	}
	for attempt := 0; attempt < 2; attempt++ {
		_, raised := read(buf[:1])
		if raised == nil {
			t.Fatalf("read %d past the failure returned", attempt)
		}
		if raised.Value != "generator bug" || !bytes.Contains(raised.Stack, []byte("(*failing).NextBatch")) {
			t.Fatalf("forwarded panic lost its origin: %v\n%s", raised.Value, raised.Stack)
		}
	}
	if got := Record(out[1], len(insts)+1); len(got) != len(insts) {
		t.Fatalf("the healthy stream yielded %d of %d instructions", len(got), len(insts))
	}
	p.Close()
	settleGoroutines(t, base)
}

// slow takes a millisecond per chunk, so its reader has to wait.
type slow struct{ SliceStream }

func (s *slow) NextBatch(buf []isa.Inst) int {
	time.Sleep(time.Millisecond)
	return s.SliceStream.NextBatch(buf)
}

// TestPipelineStats: a timed pipeline accounts the time inside the source
// to the producer and the time its reader was blocked to the consumer; an
// untimed one reads no clock and reports nothing.
func TestPipelineStats(t *testing.T) {
	insts := synthetic(3 * pipelineChunk)
	for _, timed := range []bool{true, false} {
		p, out := StartPipeline([]Stream{&slow{*NewSliceStream(insts)}}, timed)
		if got := Record(out[0], len(insts)); len(got) != len(insts) {
			t.Fatalf("read %d of %d", len(got), len(insts))
		}
		p.Close()
		gen, wait := p.Stats()
		if timed && (gen < 3*time.Millisecond || wait <= 0) {
			t.Errorf("timed: generated for %v, waited %v; the source slept 1ms in each of 3 chunks and its reader outran it", gen, wait)
		}
		if !timed && (gen != 0 || wait != 0) {
			t.Errorf("untimed: generated for %v, waited %v", gen, wait)
		}
	}
}
