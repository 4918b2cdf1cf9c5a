package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/isa"
)

func insts(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{Seq: uint64(i), Class: isa.IntALU}
	}
	return out
}

func TestSliceStreamReplaysInOrder(t *testing.T) {
	s := NewSliceStream(insts(5))
	rd := NewBuffered(s, 2)
	for i := 0; i < 5; i++ {
		in, ok := rd.Next()
		if !ok || in.Seq != uint64(i) {
			t.Fatalf("pos %d: (%v,%t)", i, in.Seq, ok)
		}
	}
	if _, ok := rd.Next(); ok {
		t.Fatal("stream did not end")
	}
	s.Reset()
	if in, ok := NewBuffered(s, 2).Next(); !ok || in.Seq != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimitEndsEarly(t *testing.T) {
	n := len(Record(NewLimit(NewSliceStream(insts(10)), 3), 100))
	if n != 3 {
		t.Fatalf("limit yielded %d, want 3", n)
	}
}

func TestLimitShorterSource(t *testing.T) {
	n := len(Record(NewLimit(NewSliceStream(insts(2)), 5), 100))
	if n != 2 {
		t.Fatalf("limit yielded %d, want 2 (source shorter)", n)
	}
}

func TestRecord(t *testing.T) {
	got := Record(NewSliceStream(insts(10)), 4)
	if len(got) != 4 || got[3].Seq != 3 {
		t.Fatalf("record = %d insts", len(got))
	}
	got = Record(NewSliceStream(insts(2)), 4)
	if len(got) != 2 {
		t.Fatalf("record past end = %d insts", len(got))
	}
}

func TestStats(t *testing.T) {
	var st Stats
	items := []isa.Inst{
		{Class: isa.Load}, {Class: isa.Store}, {Class: isa.Branch},
		{Class: isa.Call}, {Class: isa.IntALU}, {Class: isa.IntALU},
	}
	for i := range items {
		st.Observe(&items[i])
	}
	if st.Total != 6 || st.Memory != 2 || st.Branches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.Frac(isa.IntALU); got != 2.0/6 {
		t.Fatalf("Frac = %v", got)
	}
	var empty Stats
	if empty.Frac(isa.Load) != 0 {
		t.Fatal("Frac on empty stats nonzero")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := []isa.Inst{
		{Seq: 0, PC: 0x400000, Class: isa.IntALU, Src1: 3, Src2: isa.RegNone, Dst: 9},
		{Seq: 1, PC: 0x400004, Class: isa.Load, Addr: 0x123456789A, Src1: 9, Src2: isa.RegNone, Dst: 10},
		{Seq: 2, PC: 0x400008, Class: isa.Branch, Taken: true, Target: 0x400100},
		{Seq: 3, PC: 0x40000C, Class: isa.LockAcquire, SyncID: 7},
	}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream(src), 10, Header{StreamVersion: 3, Slot: 3})
	if err != nil || n != 4 {
		t.Fatalf("WriteTrace = (%d,%v)", n, err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.StreamVersion != 3 || h.Slot != 3 {
		t.Fatalf("header did not round-trip: %+v", h)
	}
	rd := NewBuffered(r, 3)
	for i, want := range src {
		got, ok := rd.Next()
		if !ok || got != want {
			t.Fatalf("record %d: got %+v want %+v (ok=%t)", i, got, want, ok)
		}
	}
	if _, ok := rd.Next(); ok {
		t.Fatal("trace did not end")
	}
	if r.Err() != nil {
		t.Fatalf("terminal error: %v", r.Err())
	}
}

// TestTraceReaderStopsAtDamagedRecord: a record WriteTrace cannot have
// written — a class byte naming no class, a taken byte that is not 0 or 1,
// a last record cut short — ends the stream there. Every record before it
// is read, none after it, and Err names the record and the byte.
func TestTraceReaderStopsAtDamagedRecord(t *testing.T) {
	var file bytes.Buffer
	if _, err := WriteTrace(&file, NewSliceStream(insts(5000)), 5000, Header{StreamVersion: 3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
		read   int
		errHas string
	}{
		{"class", func(b []byte) []byte { b[headerBytes+100*recordBytes+16] = 200; return b }, 100, "record 100: class byte 200"},
		{"class-first-of-chunk", func(b []byte) []byte { b[headerBytes+ioChunk*recordBytes+16] = byte(isa.NumClasses); return b }, ioChunk, fmt.Sprintf("record %d: class byte %d", ioChunk, isa.NumClasses)},
		{"taken", func(b []byte) []byte { b[headerBytes+3*recordBytes+28] = 2; return b }, 3, "record 3: taken byte 2"},
		{"truncated", func(b []byte) []byte { return b[:headerBytes+2000*recordBytes+7] }, 2000, "record 2000 is truncated (7 of 39 bytes)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.damage(bytes.Clone(file.Bytes()))))
			if err != nil {
				t.Fatal(err)
			}
			got := Record(r, 10_000)
			if len(got) != tc.read || (tc.read > 0 && got[tc.read-1].Seq != uint64(tc.read-1)) {
				t.Fatalf("read %d records, want the %d before the damage", len(got), tc.read)
			}
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("Err() = %v, want it to say %q", err, tc.errHas)
			}
		})
	}
}

// TestTraceReaderKeepsReadError: an error of the underlying reader ends the
// stream after the records read whole, and Err wraps it.
func TestTraceReaderKeepsReadError(t *testing.T) {
	var file bytes.Buffer
	if _, err := WriteTrace(&file, NewSliceStream(insts(50)), 50, Header{}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	cut := headerBytes + 20*recordBytes + 5
	r, err := NewReader(io.MultiReader(bytes.NewReader(file.Bytes()[:cut]), iotest.ErrReader(boom)))
	if err != nil {
		t.Fatal(err)
	}
	if got := Record(r, 100); len(got) != 20 {
		t.Fatalf("read %d records before the error, want 20", len(got))
	}
	if err := r.Err(); !errors.Is(err, boom) || !strings.Contains(err.Error(), "record 20") {
		t.Fatalf("Err() = %v, want the reader's error at record 20", err)
	}
}

func TestTraceBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := NewReader(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Stale traces must be rejected with an error that tells the user to
// re-record: the file version only moves on a deliberate stream-format
// break. Covers both a v1-era trace (old 8-byte header, no provenance
// fields) and a v2 trace (recorded before the v3 counter-RNG break),
// asserting the message names the versions and the recovery path.
func TestTraceStaleVersionRejected(t *testing.T) {
	for _, stale := range []uint32{1, 2} {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], 0x49564c53)
		binary.LittleEndian.PutUint32(hdr[4:], stale)
		_, err := NewReader(bytes.NewReader(hdr[:]))
		if err == nil {
			t.Fatalf("v%d trace accepted", stale)
		}
		msg := err.Error()
		if !strings.Contains(msg, "re-record") {
			t.Fatalf("stale-version error does not say how to recover: %v", err)
		}
		if !strings.Contains(msg, fmt.Sprintf("version %d", stale)) || !strings.Contains(msg, "v3") {
			t.Fatalf("stale-version error does not name the versions: %v", err)
		}
	}
}

func TestTraceLimitsWrites(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream(insts(100)), 7, Header{})
	if err != nil || n != 7 {
		t.Fatalf("WriteTrace = (%d,%v), want 7", n, err)
	}
}

// Property: encode/decode round-trips arbitrary instruction records.
func TestQuickTraceRoundTrip(t *testing.T) {
	f := func(seq, pc, addr, target uint64, class, s1, s2, d uint8, taken bool, id uint16) bool {
		in := isa.Inst{
			Seq: seq, PC: pc, Class: isa.Class(class % uint8(isa.NumClasses)),
			Src1: s1, Src2: s2, Dst: d, Addr: addr, Taken: taken,
			Target: target, SyncID: id,
		}
		var buf bytes.Buffer
		if n, err := WriteTrace(&buf, NewSliceStream([]isa.Inst{in}), 1, Header{}); n != 1 || err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got := Record(r, 2)
		return len(got) == 1 && got[0] == in && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
