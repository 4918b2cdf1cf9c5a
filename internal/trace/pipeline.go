package trace

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/isa"
)

// The ring of one pipelined stream: pipelineDepth chunks of pipelineChunk
// instructions (4 × 4096 × 40 B = 640 KB). Constants, not knobs: what sets
// them is the host's cost of waking the parked side (a goroutine readied
// from another P is stolen after tens of microseconds at best), which a
// chunk must amortise and the rest of the ring must cover. "Functional-
// first on its own host thread" in docs/architecture.md has the paired
// numbers of 1024- and 2048-instruction chunks, of depth 2 and 8, and of
// returning chunks in bursts.
const (
	pipelineChunk = 4096
	pipelineDepth = 4
)

// ring is the storage of one stream's chunks, pooled across pipelines so a
// process that runs scenario after scenario allocates it once.
type ring [pipelineDepth * pipelineChunk]isa.Inst

var ringPool = sync.Pool{New: func() any { return new(ring) }}

// Pipeline moves the functional side of one simulation run onto its own
// host goroutine. The framework is functional-first — the sources produce
// the committed streams and the timing models only consume them — so the
// two sides share no state: one producer goroutine fills chunks from every
// source of the run with the NextBatch the consumer would have called
// itself, and each wrapped stream copies out of the chunk at the head of
// its ring. Every stream yields the instructions of its source in the
// order of its source, whatever the two goroutines' relative speed.
//
// The wrapped streams and Close belong to one consumer goroutine.
type Pipeline struct {
	streams []*pipeStream
	// req carries spent chunks back to the producer. It has room for every
	// chunk of the pipeline, so the consumer never blocks returning one.
	req  chan pipeReq
	quit chan struct{} // closed by Close
	done chan struct{} // closed when the producer has returned

	// timed selects the clock reads behind Stats; without it neither side
	// ever reads the clock. gen belongs to the producer until done is
	// closed, wait to the consumer.
	timed     bool
	gen, wait time.Duration
}

type pipeReq struct {
	s   *pipeStream
	buf []isa.Inst
}

// chunk is one hand-over to the consumer: the next instructions of the
// stream, none at its end, or the panic that ended its source.
type chunk struct {
	insts []isa.Inst
	fail  *SourcePanic
}

// SourcePanic is a panic of a pipelined source, recovered on the producer
// goroutine and raised again on the consumer by the read that reaches the
// point where the source failed — where the panic would have surfaced had
// the consumer called the source itself. Stack is the producer's.
type SourcePanic struct {
	Value any
	Stack []byte
}

func (p *SourcePanic) Error() string {
	return fmt.Sprintf("trace: pipelined source panicked: %v\n%s", p.Value, p.Stack)
}

// StartPipeline wraps srcs behind one producer goroutine and returns the
// pipeline with the wrapped streams, in the order of srcs. The producer
// starts filling at once, srcs[0] first, and runs at most pipelineDepth
// chunks ahead of each stream's reader. With timed set the pipeline keeps
// the two host times Stats reports.
func StartPipeline(srcs []Stream, timed bool) (*Pipeline, []Stream) {
	p := &Pipeline{
		streams: make([]*pipeStream, len(srcs)),
		req:     make(chan pipeReq, len(srcs)*pipelineDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		timed:   timed,
	}
	out := make([]Stream, len(srcs))
	for i, src := range srcs {
		s := &pipeStream{
			p:    p,
			src:  src,
			ring: ringPool.Get().(*ring),
			// Room for the whole ring, so the producer never blocks
			// handing a chunk over.
			full: make(chan chunk, pipelineDepth),
		}
		for c := 0; c < len(s.ring); c += pipelineChunk {
			p.req <- pipeReq{s, s.ring[c : c+pipelineChunk : c+pipelineChunk]}
		}
		p.streams[i], out[i] = s, s
	}
	go p.produce()
	return p, out
}

func (p *Pipeline) produce() {
	defer close(p.done)
	for {
		select {
		case r := <-p.req:
			p.fill(r)
		case <-p.quit:
			return
		}
	}
}

// fill hands the next chunk of r's stream over in r's buffer. A source
// that panics ends its own stream only; the others are served on.
func (p *Pipeline) fill(r pipeReq) {
	s := r.s
	if s.srcDone {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			s.srcDone = true
			s.full <- chunk{fail: &SourcePanic{Value: v, Stack: debug.Stack()}}
		}
	}()
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	n := s.src.NextBatch(r.buf)
	if p.timed {
		p.gen += time.Since(t0)
	}
	s.srcDone = n == 0
	s.full <- chunk{insts: r.buf[:n]}
}

// Close stops the producer, waits until it has returned and hands the
// rings back to the pool. Every wrapped stream reads as ended afterwards.
// Closing a closed pipeline does nothing.
func (p *Pipeline) Close() {
	select {
	case <-p.quit:
		return
	default:
	}
	close(p.quit)
	<-p.done
	for _, s := range p.streams {
		s.cur, s.pos, s.ended = nil, 0, true
		ringPool.Put(s.ring)
	}
}

// Stats reports, for a closed pipeline started with timed set, the host
// time the producer spent inside the sources and the host time the
// consumer spent blocked on a chunk that was not ready.
func (p *Pipeline) Stats() (gen, wait time.Duration) { return p.gen, p.wait }

// pipeStream is the consumer's end of one pipelined stream.
type pipeStream struct {
	p    *Pipeline
	ring *ring
	full chan chunk

	// Producer side.
	src     Stream
	srcDone bool

	// Consumer side: the chunk being read, then what ended the stream.
	cur   []isa.Inst
	pos   int
	ended bool
	fail  *SourcePanic
}

// NextBatch implements Stream. Like the sources it stands in for, it
// returns short only at the end of the stream.
func (s *pipeStream) NextBatch(buf []isa.Inst) int {
	n := 0
	for n < len(buf) {
		if s.pos == len(s.cur) && !s.advance() {
			break
		}
		k := copy(buf[n:], s.cur[s.pos:])
		s.pos += k
		n += k
	}
	return n
}

// advance returns the spent chunk to the producer and takes the next one,
// reporting false at the end of the stream.
func (s *pipeStream) advance() bool {
	if s.fail != nil {
		panic(s.fail)
	}
	if s.ended {
		return false
	}
	p := s.p
	if s.cur != nil {
		p.req <- pipeReq{s, s.cur[:cap(s.cur)]}
		s.cur, s.pos = nil, 0
	}
	var c chunk
	select {
	case c = <-s.full:
	default:
		// The producer is behind. It outlives every read (Close is the
		// consumer's own call), so this receive needs no way out.
		if p.timed {
			t0 := time.Now()
			c = <-s.full
			p.wait += time.Since(t0)
		} else {
			c = <-s.full
		}
	}
	if c.fail != nil {
		s.fail = c.fail
		panic(c.fail)
	}
	if len(c.insts) == 0 {
		s.ended = true
		return false
	}
	s.cur = c.insts
	return true
}
