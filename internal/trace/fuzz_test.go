package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

// readAll drains a reader over data through a chunk buffer of the given
// size, failing on any instruction a consumer could not index a per-class
// array with.
func readAll(t *testing.T, data []byte, size int) ([]isa.Inst, *Reader) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil
	}
	var out []isa.Inst
	buf := make([]isa.Inst, size)
	for {
		k := r.NextBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	if r.NextBatch(buf) != 0 {
		t.Fatalf("buffer of %d: the stream resumed after its end", size)
	}
	for i := range out {
		if int(out[i].Class) >= isa.NumClasses {
			t.Fatalf("buffer of %d: record %d handed out with class %d", size, i, out[i].Class)
		}
	}
	return out, r
}

// FuzzTraceReader holds the trace reader to its contract on bytes from
// outside. Read as a trace file, arbitrary data never panics, hands out only
// instructions a consumer can index per-class arrays with, reads the same
// whatever the consumer's chunk size, ends with a nil Err exactly when the
// whole file was records, and what it did hand out is a fixed point:
// written back, it is the file's clean prefix byte for byte. Read as raw
// material for a well-formed trace with a damaged record and the data
// itself appended, the reader yields the clean prefix exactly and says
// which record ended the stream.
func FuzzTraceReader(f *testing.F) {
	var clean bytes.Buffer
	if _, err := WriteTrace(&clean, NewSliceStream(synthetic(40)), 40, Header{StreamVersion: 3, Slot: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:headerBytes+5*recordBytes+11])

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a file.
		sizes := []int{1, 7, 4096}
		var first []isa.Inst
		for _, size := range sizes {
			got, r := readAll(t, data, size)
			if r == nil {
				break // rejected by NewReader, whatever the size
			}
			whole := headerBytes+len(got)*recordBytes == len(data)
			if (r.Err() == nil) != whole {
				t.Fatalf("buffer of %d: %d records of a %d-byte file, Err() = %v", size, len(got), len(data), r.Err())
			}
			if size == sizes[0] {
				first = got
				var back bytes.Buffer
				if n, err := WriteTrace(&back, NewSliceStream(got), len(got), r.Header()); n != len(got) || err != nil {
					t.Fatalf("WriteTrace = (%d, %v)", n, err)
				}
				if !bytes.Equal(back.Bytes(), data[:back.Len()]) {
					t.Fatalf("the %d records read do not write back as the file's first %d bytes", len(got), back.Len())
				}
				continue
			}
			if len(got) != len(first) {
				t.Fatalf("buffer of %d reads %d records, buffer of %d reads %d", size, len(got), sizes[0], len(first))
			}
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("buffer of %d: record %d is %+v, buffer of %d read %+v", size, i, got[i], sizes[0], first[i])
				}
			}
		}

		// As material: every 39 bytes a record, its class and taken bytes
		// folded into range; then a record of class 200, then the data.
		var file bytes.Buffer
		n := len(data) / recordBytes
		want := make([]isa.Inst, n)
		for i := range want {
			rec := bytes.Clone(data[i*recordBytes : (i+1)*recordBytes])
			rec[16] %= byte(isa.NumClasses)
			rec[28] &= 1
			in, err := decode(rec)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = in
		}
		if _, err := WriteTrace(&file, NewSliceStream(want), n, Header{StreamVersion: 3}); err != nil {
			t.Fatal(err)
		}
		var bad [recordBytes]byte
		bad[16] = 200
		file.Write(bad[:])
		file.Write(data)
		for _, size := range sizes {
			got, r := readAll(t, file.Bytes(), size)
			if r == nil {
				t.Fatal("a trace WriteTrace wrote was rejected")
			}
			if len(got) != n {
				t.Fatalf("buffer of %d: %d records before the damaged one, want %d", size, len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("buffer of %d: record %d is %+v, written %+v", size, i, got[i], want[i])
				}
			}
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d: class byte 200", n)) {
				t.Fatalf("buffer of %d: Err() = %v after record %d, of class 200", size, err, n)
			}
		}
	})
}
