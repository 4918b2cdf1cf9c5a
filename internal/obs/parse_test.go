package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

// TestParseTextRoundTrip: WriteAll → ParseText → writeFamilies →
// ParseText is lossless — the parser reads back everything the registry
// writes.
func TestParseTextRoundTrip(t *testing.T) {
	a := NewRegistry()
	a.Counter("t_jobs_total", "Jobs.").Add(9)
	a.Counter("t_runs_total", "Runs.", Label{"engine", "interval"}).Add(2)
	a.GaugeFunc("t_depth", "Depth.", func() float64 { return 3 })
	h := a.Histogram("t_wall_seconds", "Wall.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	b := NewRegistry()
	b.Counter("t_beats_total", "Beats.").Inc()

	var first bytes.Buffer
	if err := WriteAll(&first, a, b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := writeFamilies(&second, parsed); err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseText(&second)
	if err != nil {
		t.Fatalf("re-rendered payload does not parse: %v\n%s", err, second.String())
	}
	if !familiesEqual(parsed, reparsed) {
		t.Fatalf("round trip lost information:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

// FuzzParseText: the parser must never panic, and any payload it
// accepts must survive the render/re-parse round trip unchanged.
func FuzzParseText(f *testing.F) {
	f.Add("# HELP x X.\n# TYPE x counter\nx 1\n")
	f.Add("# TYPE g gauge\ng{worker=\"w1\",q=\"a b\"} -1.5\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n")
	f.Add("orphan 3\n")
	f.Add("# TYPE x counter\nx notanumber\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, payload string) {
		fams, err := ParseText(strings.NewReader(payload))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFamilies(&out, fams); err != nil {
			t.Fatalf("accepted payload failed to render: %v", err)
		}
		again, err := ParseText(&out)
		if err != nil {
			t.Fatalf("rendered payload does not re-parse: %v\n%s", err, out.String())
		}
		if !familiesEqual(fams, again) {
			t.Fatalf("render/re-parse not idempotent for:\n%s", payload)
		}
	})
}

// writeFamilies renders parsed families back to the text exposition
// format (families sorted by name, samples in parse order) — the
// inverse of ParseText modulo ordering, the oracle for the round-trip
// tests above.
func writeFamilies(w io.Writer, families map[string]*ParsedFamily) error {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.Help, name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			ls := make([]Label, 0, len(s.Labels))
			for k, v := range s.Labels {
				ls = append(ls, Label{Key: k, Value: v})
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, renderLabels(ls), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// familiesEqual reports whether two parsed payloads carry the same
// families, samples and values, ignoring sample order within a family.
func familiesEqual(a, b map[string]*ParsedFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for name, fa := range a {
		fb, ok := b[name]
		if !ok || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		if sampleKey(fa.Samples) != sampleKey(fb.Samples) {
			return false
		}
	}
	return true
}

// sampleKey renders samples order-independently for comparison.
func sampleKey(samples []ParsedSample) string {
	lines := make([]string, len(samples))
	for i, s := range samples {
		ls := make([]Label, 0, len(s.Labels))
		for k, v := range s.Labels {
			ls = append(ls, Label{Key: k, Value: v})
		}
		lines[i] = fmt.Sprintf("%s%s %s", s.Name, renderLabels(ls), formatValue(s.Value))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
