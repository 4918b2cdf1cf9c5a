// Package trace defines the dynamic-instruction-stream plumbing between the
// functional simulator (the workload generator) and the timing models. The
// paper's framework is functional-first: a functional simulator produces
// the committed instruction stream, which is then fed to the timing
// simulator; this package is that interface.
package trace

import "repro/internal/isa"

// Stream produces a thread's dynamic instruction stream in program order,
// a chunk at a time. It is the one hand-off between the functional side and
// everything that consumes instructions: the cores and the warm-up loop pull
// thousands of instructions per call, so no interface dispatch is paid per
// instruction.
//
// Every instruction a Stream hands out has a Class below isa.NumClasses and
// operands (Src1, Src2, Dst) below isa.NumRegs or equal to isa.RegNone:
// the timing models index fixed-size arrays with them and do not check.
// Sources of bytes from outside, such as Reader, reject what breaks this.
type Stream interface {
	// NextBatch fills buf with the next instructions of the stream, in
	// program order, and returns how many were written. It returns 0 only
	// at end-of-stream (for a non-empty buf); a short count does not mean
	// the stream has ended.
	NextBatch(buf []isa.Inst) int
}

// BatchStream and Batched date from when Stream was a per-instruction
// interface and handing out chunks was an extra capability. They exist only
// because benchmark/layers.go spells them, and go with the next [benchmark]
// PR; nothing else may call them.
type BatchStream = Stream

// Batched returns s.
func Batched(s Stream) Stream { return s }

// Buffered is the one per-instruction reader: Next is a direct
// (devirtualized) method call that refills from the underlying stream one
// chunk at a time. It is a concrete type, not a second stream interface —
// a consumer that wants instructions one by one (the one-IPC core, the
// statistical profiler, tests) owns its Buffered; what it passes on is
// still a Stream.
type Buffered struct {
	src  Stream
	buf  []isa.Inst
	pos  int
	n    int
	done bool
}

// NewBuffered wraps s with a chunk buffer of the given size.
func NewBuffered(s Stream, size int) *Buffered {
	if size < 1 {
		size = 1
	}
	return &Buffered{src: s, buf: make([]isa.Inst, size)}
}

// Next returns the next instruction, refilling the chunk buffer as needed.
// The bool is false at the end of the stream; the instruction is then
// meaningless.
func (r *Buffered) Next() (isa.Inst, bool) {
	if r.pos == r.n {
		if r.done {
			return isa.Inst{}, false
		}
		r.n = r.src.NextBatch(r.buf)
		r.pos = 0
		if r.n == 0 {
			r.done = true
			return isa.Inst{}, false
		}
	}
	in := r.buf[r.pos]
	r.pos++
	return in, true
}

// SliceStream replays a fixed slice of instructions (test helper and
// building block for recorded traces).
type SliceStream struct {
	insts []isa.Inst
	pos   int
}

// NewSliceStream wraps insts in a Stream.
func NewSliceStream(insts []isa.Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// NextBatch implements Stream with one bulk copy.
func (s *SliceStream) NextBatch(buf []isa.Inst) int {
	n := copy(buf, s.insts[s.pos:])
	s.pos += n
	return n
}

// Record drains up to n instructions from src into a slice, so one
// generated stream can be replayed into several simulators.
func Record(src Stream, n int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	for len(out) < n {
		k := src.NextBatch(out[len(out):n])
		if k == 0 {
			break
		}
		out = out[:len(out)+k]
	}
	return out
}

// Limit wraps a stream and ends it after n instructions.
type Limit struct {
	src  Stream
	left int
}

// NewLimit creates a stream that yields at most n instructions from src.
func NewLimit(src Stream, n int) *Limit {
	return &Limit{src: src, left: n}
}

// NextBatch implements Stream, clamping the chunk to the remaining budget:
// a Limit never reads past its end, so whoever continues from src sees the
// next instruction.
func (l *Limit) NextBatch(buf []isa.Inst) int {
	if l.left <= 0 {
		return 0
	}
	if len(buf) > l.left {
		buf = buf[:l.left]
	}
	k := l.src.NextBatch(buf)
	l.left -= k
	return k
}

// Stats accumulates simple class statistics over a stream (test and
// reporting helper).
type Stats struct {
	Total    uint64
	ByClass  [isa.NumClasses]uint64
	Branches uint64
	Memory   uint64
}

// Observe updates the statistics with one instruction.
func (st *Stats) Observe(in *isa.Inst) {
	st.Total++
	st.ByClass[in.Class]++
	if in.Class.IsBranch() {
		st.Branches++
	}
	if in.Class.IsMem() {
		st.Memory++
	}
}

// Frac returns the fraction of instructions of class c.
func (st *Stats) Frac(c isa.Class) float64 {
	if st.Total == 0 {
		return 0
	}
	return float64(st.ByClass[c]) / float64(st.Total)
}
