package obs

import (
	"encoding/base64"
	"reflect"
	"testing"
)

// FuzzDecodeSpans holds the X-Fleet-Spans header, bytes a worker hands the
// coordinator, to its contract. DecodeSpans never panics. What it accepts
// re-encodes within the byte budget to a tail of itself that decodes back
// exactly. Splicing it into a tracer of any capacity keeps the ring within
// that capacity, counts every overwritten span as dropped and keeps the
// newest spans, shifted and moved onto the track as asked.
func FuzzDecodeSpans(f *testing.F) {
	spans := []SpanRec{
		{Name: "dispatch:w1", StartUS: 10, DurUS: 900, Args: map[string]int64{"attempt": 1}},
		{Name: "engine:full", TID: 1, StartUS: 40, DurUS: 700, Args: map[string]int64{"pipelined": 1, "gen_ms": 3}},
		{Name: "cache:store", TID: 1, StartUS: 750, DurUS: 20},
	}
	f.Add(EncodeSpans(spans, 0), 0, int64(1000), 2, 8)
	f.Add(EncodeSpans(spans, 0), 100, int64(-5), -1, 2)
	f.Add(base64.StdEncoding.EncodeToString([]byte(`[{"name":"x","args":{}},null,{"NAME":"\ud800","tid":-3}]`)), 64, int64(0), 0, 1)
	f.Add(base64.StdEncoding.EncodeToString([]byte(`{"name":"not an array"}`)), 0, int64(0), 0, 0)
	f.Add("!!not-base64!!", 0, int64(0), 0, 0)

	sameArgs := func(a, b map[string]int64) bool {
		return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
	}
	f.Fuzz(func(t *testing.T, header string, maxBytes int, offsetUS int64, tid, capacity int) {
		spans, err := DecodeSpans(header)
		if err != nil {
			return
		}

		enc := EncodeSpans(spans, maxBytes)
		limit := maxBytes
		if limit <= 0 {
			limit = DefaultSpanWireBytes
		}
		if len(enc) > limit {
			t.Fatalf("encoding is %d bytes, budget %d", len(enc), limit)
		}
		kept, err := DecodeSpans(enc)
		if err != nil {
			t.Fatalf("EncodeSpans output does not decode: %v", err)
		}
		if len(kept) > len(spans) {
			t.Fatalf("%d spans encode to %d", len(spans), len(kept))
		}
		tail := spans[len(spans)-len(kept):]
		for i := range kept {
			a, b := kept[i], tail[i]
			if a.Name != b.Name || a.TID != b.TID || a.StartUS != b.StartUS || a.DurUS != b.DurUS || !sameArgs(a.Args, b.Args) {
				t.Fatalf("kept span %d of %d is %+v, the tail has %+v", i, len(kept), a, b)
			}
		}

		capacity = 1 + capacity&63
		tr := NewTracer(capacity)
		tr.Splice(spans, offsetUS, tid)
		got := tr.Spans()
		want := spans[max(0, len(spans)-capacity):]
		if len(got) != len(want) || tr.Dropped() != uint64(len(spans)-len(want)) {
			t.Fatalf("splicing %d spans into a ring of %d keeps %d and drops %d", len(spans), capacity, len(got), tr.Dropped())
		}
		for i, s := range want {
			s.StartUS += offsetUS
			if tid >= 0 {
				s.TID = tid
			}
			if g := got[i]; g.Name != s.Name || g.TID != s.TID || g.StartUS != s.StartUS || g.DurUS != s.DurUS {
				t.Fatalf("spliced span %d is %+v, want %+v", i, g, s)
			}
		}
	})
}
