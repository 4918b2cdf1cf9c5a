package obs

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanRec is one completed span: a named interval on a track (TID),
// with optional numeric arguments (aggregated wait times, counts).
// Times are microseconds relative to the tracer's epoch, which is what
// both the JSON trace endpoint and the Chrome trace_event exporter
// serve directly.
type SpanRec struct {
	Name    string           `json:"name"`
	TID     int              `json:"tid"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Args    map[string]int64 `json:"args,omitempty"`
}

// Tracer records spans into a bounded in-memory ring. All methods are
// safe for concurrent use and all are no-ops on a nil *Tracer — the
// zero-cost-when-disabled contract: instrumented code calls
// tracer.Start(...) unconditionally cheaply only where a nil check
// already guards the slow path.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	ring    []SpanRec
	next    int
	wrapped bool
	dropped uint64
	// tidNames labels span tracks (TIDs) for viewers: on a stitched
	// fleet trace, row 0 is the coordinator and each worker gets its own
	// named row.
	tidNames map[int]string
}

// DefaultSpanCap bounds the span ring when NewTracer is given no
// capacity: enough for the full lifecycle of a job many times over.
const DefaultSpanCap = 4096

// NewTracer builds a tracer with a bounded span ring (capacity <= 0
// selects DefaultSpanCap). The tracer's epoch is its creation time.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{epoch: time.Now(), ring: make([]SpanRec, 0, capacity)}
}

// Since converts an absolute time to the tracer's relative microsecond
// clock. Nil-safe (returns 0).
func (t *Tracer) Since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Microseconds()
}

// Now is Since(time.Now()). Nil-safe (returns 0).
func (t *Tracer) Now() int64 { return t.Since(time.Now()) }

// Add records a completed span. Nil-safe. When the ring is full the
// oldest span is overwritten and the drop counted.
func (t *Tracer) Add(s SpanRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next++
		if t.next == cap(t.ring) {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Span is an in-flight span handle returned by Start. A nil *Span
// no-ops every method, so callers never nil-check individual handles.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	start time.Time
	args  map[string]int64
}

// Start opens a span now. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now()}
}

// TID assigns the span to a track (a simulated core, a worker).
func (s *Span) TID(id int) *Span {
	if s != nil {
		s.tid = id
	}
	return s
}

// Arg attaches a numeric argument, visible in the trace viewer.
func (s *Span) Arg(key string, v int64) *Span {
	if s == nil {
		return s
	}
	if s.args == nil {
		s.args = map[string]int64{}
	}
	s.args[key] = v
	return s
}

// End closes the span and records it. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.Add(SpanRec{
		Name:    s.name,
		TID:     s.tid,
		StartUS: s.t.Since(s.start),
		DurUS:   now.Sub(s.start).Microseconds(),
		Args:    s.args,
	})
}

// Spans snapshots the recorded spans in chronological ring order
// (oldest first). Nil-safe (returns nil).
func (t *Tracer) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]SpanRec(nil), t.ring...)
	}
	out := make([]SpanRec, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped is the number of spans lost to ring overflow. Nil-safe.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// NameTID labels a span track, e.g. a fleet worker's row on a stitched
// trace. Nil-safe.
func (t *Tracer) NameTID(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.tidNames == nil {
		t.tidNames = map[int]string{}
	}
	t.tidNames[tid] = name
	t.mu.Unlock()
}

// TIDNames snapshots the track labels (nil when none were named).
// Nil-safe.
func (t *Tracer) TIDNames() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.tidNames) == 0 {
		return nil
	}
	out := make(map[int]string, len(t.tidNames))
	for k, v := range t.tidNames {
		out[k] = v
	}
	return out
}

// Splice imports spans recorded by another tracer (a fleet worker, in
// its own timebase) into this one: every span's start is shifted by
// offsetUS — the point on this tracer's clock the remote clock started
// at — and, when tid >= 0, moved onto that track. Durations are
// untouched: both clocks are monotonic host clocks, so a remote span's
// extent is as real as a local one's. Nil-safe.
func (t *Tracer) Splice(spans []SpanRec, offsetUS int64, tid int) {
	if t == nil {
		return
	}
	for _, s := range spans {
		s.StartUS += offsetUS
		if tid >= 0 {
			s.TID = tid
		}
		t.Add(s)
	}
}

// EncodeSpans renders spans as the compact, header-safe wire form
// (base64 of the JSON array) bounded to roughly maxBytes of output
// (<=0 selects DefaultSpanWireBytes). When the spans do not fit, the
// oldest are dropped — the tail of a run (engine, measure, store) is
// the informative part. Returns "" for no spans.
func EncodeSpans(spans []SpanRec, maxBytes int) string {
	if len(spans) == 0 {
		return ""
	}
	if maxBytes <= 0 {
		maxBytes = DefaultSpanWireBytes
	}
	// Base64 expands 3 bytes to 4; budget the JSON accordingly.
	budget := maxBytes / 4 * 3
	for start := 0; start < len(spans); {
		raw, err := json.Marshal(spans[start:])
		if err != nil {
			return ""
		}
		if len(raw) <= budget {
			return base64.StdEncoding.EncodeToString(raw)
		}
		// Drop the oldest spans proportionally to the overshoot, always
		// making progress.
		over := (len(raw) - budget) * (len(spans) - start) / len(raw)
		if over < 1 {
			over = 1
		}
		start += over
	}
	return ""
}

// DefaultSpanWireBytes bounds the encoded span payload a worker returns
// alongside a result: generous for a job lifecycle (hundreds of spans),
// safely under HTTP header limits.
const DefaultSpanWireBytes = 48 << 10

// DecodeSpans parses EncodeSpans's wire form.
func DecodeSpans(s string) ([]SpanRec, error) {
	if s == "" {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("obs: span wire form is not base64: %v", err)
	}
	var spans []SpanRec
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("obs: span wire form is not a span array: %v", err)
	}
	return spans, nil
}

// chromeEvent is one trace_event record ("X" = complete event with
// duration, "M" = metadata such as a thread name), the format
// chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the recorded spans as Chrome trace_event JSON
// (load the file in chrome://tracing or ui.perfetto.dev). Named tracks
// (NameTID — fleet worker rows on a stitched trace) become thread_name
// metadata events so the viewer labels the rows. Nil-safe (writes an
// empty trace).
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans)+4)
	names := t.TIDNames()
	tids := make([]int, 0, len(names))
	for tid := range names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": names[tid]},
		})
	}
	for _, s := range spans {
		var args map[string]any
		if len(s.Args) > 0 {
			args = make(map[string]any, len(s.Args))
			for k, v := range s.Args {
				args[k] = v
			}
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: s.StartUS, Dur: s.DurUS, PID: 1, TID: s.TID, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// tracerKey carries a *Tracer through a context.
type tracerKey struct{}

// ContextWith returns a context carrying the tracer.
func ContextWith(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext extracts the context's tracer (nil when absent — and a
// nil tracer no-ops, so callers never branch).
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan opens a span on the context's tracer: the one-liner form
// obs.StartSpan(ctx, "cache:store") for code that already threads a
// context. No-op (nil span) when the context carries no tracer.
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).Start(name)
}
