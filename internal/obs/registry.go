// Package obs is the stack's dependency-free observability core: a
// metrics registry with Prometheus text exposition, a structured span
// tracer with an in-memory ring and Chrome trace_event export, and a
// throttled live-progress heartbeat.
//
// Everything in this package obeys one hard contract: **zero cost when
// disabled**. Every hot-path hook is a nil-pointer method call — a nil
// *Tracer or *Heartbeat no-ops every operation — so instrumented code
// guards with a single nil check and pays nothing when observability is
// off. Observability output never feeds back into simulation: metrics,
// spans and progress carry host wall-clock measurements only and are
// excluded from scenario fingerprints and report.JSON payloads, so
// bit-identity contracts (pipelined vs inline generation, cache payload
// equality) hold with tracing on or off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for the exposition `# TYPE` line.
type Kind string

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = "counter"
	// KindGauge is a value that can go up and down.
	KindGauge Kind = "gauge"
	// KindHistogram is a cumulative bucketed distribution.
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a cumulative bucketed distribution of float64
// observations (Prometheus histogram semantics: each bucket counts
// observations ≤ its upper bound, plus an implicit +Inf bucket).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last = +Inf
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation within the bucket holding the
// target rank — the same estimate a Prometheus histogram_quantile gives.
// Returns 0 with no observations; observations beyond the last finite
// bound clamp to it.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := uint64(0)
	lower := 0.0
	for i, upper := range h.bounds {
		prev := cum
		cum += h.counts[i]
		if float64(cum) >= rank {
			if h.counts[i] == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(h.counts[i])
			return lower + (upper-lower)*frac
		}
		lower = upper
	}
	// Target rank sits in the +Inf bucket: the last finite bound is the
	// best bounded answer.
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// DefBuckets are the default histogram bounds, in seconds: wide enough
// to span a sub-millisecond statistical estimate and a minutes-long
// detailed run.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30, 60, 120, 300}

// Label is one metric label pair.
type Label struct{ Key, Value string }

// series is one labeled instance of a family.
type series struct {
	labels  string // rendered `{k="v",...}`, "" when unlabeled
	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// family is one named metric with its help string, kind and series.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent: asking for an
// existing (name, labels) pair returns the existing instrument, so
// init-once wiring needs no coordination. A nil *Registry no-ops every
// registration and returns usable (but unexported) instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry collects process-wide metrics (engine runs, batch
// occupancy) that have no natural per-object home.
var defaultRegistry = NewRegistry()

// Default is the process-wide registry. Libraries register their
// metrics here lazily (sync.Once) so unused subsystems add nothing.
func Default() *Registry { return defaultRegistry }

// renderLabels renders a label set deterministically (sorted by key).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// fam returns the named family, creating it with the given kind and
// help on first use. Re-registering with a different kind panics: that
// is program wiring gone wrong, not user input.
func (r *Registry) fam(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// Counter registers (or fetches) a counter with optional labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, KindCounter)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, counter: &Counter{}}
		f.series[key] = s
	}
	return s.counter
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — the bridge for values another subsystem already tracks (queue
// length, cache size). Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, KindGauge)
	key := renderLabels(labels)
	f.series[key] = &series{labels: key, gaugeFn: fn}
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counts another subsystem already
// tracks in its own atomics. Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, KindCounter)
	key := renderLabels(labels)
	f.series[key] = &series{labels: key, gaugeFn: func() float64 { return float64(fn()) }}
}

// Histogram registers (or fetches) a histogram with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if r == nil {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, KindHistogram)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, hist: &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}}
		f.series[key] = s
	}
	return s.hist
}

// formatValue renders a sample value the way Prometheus clients do:
// integers without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.hist != nil:
		s.hist.mu.Lock()
		bounds := s.hist.bounds
		counts := append([]uint64(nil), s.hist.counts...)
		sum, count := s.hist.sum, s.hist.count
		s.hist.mu.Unlock()
		cum := uint64(0)
		for i, b := range bounds {
			cum += counts[i]
			if err := writeSample(w, f.name+"_bucket", mergeLabel(s.labels, "le", formatValue(b)), float64(cum)); err != nil {
				return err
			}
		}
		cum += counts[len(bounds)]
		if err := writeSample(w, f.name+"_bucket", mergeLabel(s.labels, "le", "+Inf"), float64(cum)); err != nil {
			return err
		}
		if err := writeSample(w, f.name+"_sum", s.labels, sum); err != nil {
			return err
		}
		return writeSample(w, f.name+"_count", s.labels, float64(count))
	case s.counter != nil:
		return writeSample(w, f.name, s.labels, float64(s.counter.Value()))
	case s.gaugeFn != nil:
		return writeSample(w, f.name, s.labels, s.gaugeFn())
	}
	return nil
}

// writeSample renders one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v float64) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(v))
	return err
}

// mergeLabel appends one more label pair to an already-rendered label
// string (for the histogram `le` label).
func mergeLabel(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// WriteText renders the registry in the Prometheus text exposition
// format: families sorted by name, series sorted by label string, one
// `# HELP` and `# TYPE` line per family. A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	return WriteAll(w, r)
}

// WriteAll renders several registries as one exposition payload,
// merging their family namespaces (first registration of a name wins on
// help/kind) and sorting families by name. This is how a server merges
// its per-instance registry with the process-wide Default one.
func WriteAll(w io.Writer, regs ...*Registry) error {
	merged := map[string]*family{}
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		for name, f := range r.families {
			m, ok := merged[name]
			if !ok {
				m = &family{name: f.name, help: f.help, kind: f.kind, series: map[string]*series{}}
				merged[name] = m
			}
			for key, s := range f.series {
				if _, dup := m.series[key]; !dup {
					m.series[key] = s
				}
			}
		}
		r.mu.Unlock()
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := merged[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeSeries(w, f, f.series[k]); err != nil {
				return err
			}
		}
	}
	return nil
}
