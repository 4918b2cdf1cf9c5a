package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace format: a magic header followed by fixed-width little-endian
// instruction records. Recording a generated stream lets an experiment be
// replayed exactly (e.g. feeding the identical committed stream to an
// external tool, or rerunning a timing study without regenerating), which
// is the natural workflow for a functional-first simulator. The full
// layout is documented in docs/formats.md.
//
// File version 2 extends the header with the provenance a replayed stream
// cannot reconstruct from its records: the workload stream-format
// generation that produced it (so traces recorded before a deliberate
// stream break are rejected loudly instead of silently timing stale
// streams) and the address-space slot the stream was instantiated at.
//
// File version 3 marks the stream-format v3 break (counter-based RNG +
// tabulated geometric sampling in the workload generator): the layout is
// unchanged from v2, but v2 traces record streams no v3 generator can
// reproduce, so they are rejected on replay with a re-record hint.

const (
	traceMagic   = uint32(0x49564c53) // "SLVI"
	traceVersion = uint32(3)
	headerBytes  = 4 + 4 + 4 + 4                         // magic, file version, Header fields
	recordBytes  = 8 + 8 + 1 + 1 + 1 + 1 + 8 + 1 + 8 + 2 // fields below
	// ioChunk is how many records WriteTrace pulls from its source, and a
	// Reader from its file, at a time.
	ioChunk = 1024
)

// Header is the recorded stream's provenance, carried in the trace file
// after the magic and file version.
type Header struct {
	// StreamVersion is the workload stream-format generation
	// (workload.StreamVersion) the recorded stream was generated under.
	// Recorders must set it; replays read it back so front ends can
	// refuse to mix stream generations.
	StreamVersion uint32
	// Slot is the address-space slot the stream was instantiated at
	// (workload.NewSlot); 0 for single-program streams.
	Slot uint32
}

// WriteTrace drains src to w in binary format, writing at most n
// instructions under the given provenance header. It returns the number
// written.
func WriteTrace(w io.Writer, src Stream, n int, h Header) (int, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], h.StreamVersion)
	binary.LittleEndian.PutUint32(hdr[12:], h.Slot)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: writing header: %w", err)
	}
	var rec [recordBytes]byte
	buf := make([]isa.Inst, ioChunk)
	written := 0
	for written < n {
		k := src.NextBatch(buf[:min(len(buf), n-written)])
		if k == 0 {
			break
		}
		for i := range buf[:k] {
			encode(&rec, &buf[i])
			if _, err := bw.Write(rec[:]); err != nil {
				return written, fmt.Errorf("trace: writing record %d: %w", written, err)
			}
			written++
		}
	}
	return written, bw.Flush()
}

func encode(rec *[recordBytes]byte, in *isa.Inst) {
	binary.LittleEndian.PutUint64(rec[0:], in.Seq)
	binary.LittleEndian.PutUint64(rec[8:], in.PC)
	rec[16] = uint8(in.Class)
	rec[17] = in.Src1
	rec[18] = in.Src2
	rec[19] = in.Dst
	binary.LittleEndian.PutUint64(rec[20:], in.Addr)
	if in.Taken {
		rec[28] = 1
	} else {
		rec[28] = 0
	}
	binary.LittleEndian.PutUint64(rec[29:], in.Target)
	binary.LittleEndian.PutUint16(rec[37:], in.SyncID)
}

// decode reads one record. Every field is a plain number except two: the
// class indexes [isa.NumClasses] arrays downstream and the taken flag is a
// boolean, so a record whose class byte names no class, or whose taken byte
// is neither 0 nor 1, is not one WriteTrace wrote.
func decode(rec []byte) (isa.Inst, error) {
	if int(rec[16]) >= isa.NumClasses {
		return isa.Inst{}, fmt.Errorf("class byte %d (classes are 0..%d)", rec[16], isa.NumClasses-1)
	}
	if rec[28] > 1 {
		return isa.Inst{}, fmt.Errorf("taken byte %d (0 or 1)", rec[28])
	}
	return isa.Inst{
		Seq:    binary.LittleEndian.Uint64(rec[0:]),
		PC:     binary.LittleEndian.Uint64(rec[8:]),
		Class:  isa.Class(rec[16]),
		Src1:   rec[17],
		Src2:   rec[18],
		Dst:    rec[19],
		Addr:   binary.LittleEndian.Uint64(rec[20:]),
		Taken:  rec[28] == 1,
		Target: binary.LittleEndian.Uint64(rec[29:]),
		SyncID: binary.LittleEndian.Uint16(rec[37:]),
	}, nil
}

// Reader replays a binary trace from an io.Reader. It implements Stream.
type Reader struct {
	br   *bufio.Reader
	hdr  Header
	raw  []byte // one chunk of records, as read
	read int    // records handed out so far
	err  error
}

// NewReader validates the trace header and returns a replaying Stream.
// Traces written under an older file version are rejected with an error
// saying to re-record them: a version bump marks a deliberate
// stream-format break, after which old traces time streams that no
// current configuration can reproduce.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported trace file version %d (this build reads v%d; the version changes only on a deliberate stream-format break — re-record the trace with cmd/tracegen)", v, traceVersion)
	}
	return &Reader{
		br: br,
		hdr: Header{
			StreamVersion: binary.LittleEndian.Uint32(hdr[8:]),
			Slot:          binary.LittleEndian.Uint32(hdr[12:]),
		},
		raw: make([]byte, ioChunk*recordBytes),
	}, nil
}

// Header returns the provenance header recorded with the trace.
func (r *Reader) Header() Header { return r.hdr }

// NextBatch implements Stream: one read of the underlying reader per chunk
// of records. The stream ends at the end of the file, at a read error, at a
// truncated last record or at the first record WriteTrace cannot have
// written; Err tells which. Every instruction before that point is handed
// out.
func (r *Reader) NextBatch(buf []isa.Inst) int {
	if r.err != nil {
		return 0
	}
	raw := r.raw[:min(len(buf), ioChunk)*recordBytes]
	got, err := io.ReadFull(r.br, raw)
	switch {
	case err == nil, err == io.EOF:
	case err != io.ErrUnexpectedEOF:
		err = fmt.Errorf("trace: reading record %d: %w", r.read+got/recordBytes, err)
	case got%recordBytes == 0:
		err = io.EOF // the file ended between two records
	default:
		err = fmt.Errorf("trace: record %d is truncated (%d of %d bytes)", r.read+got/recordBytes, got%recordBytes, recordBytes)
	}
	r.err = err
	n := got / recordBytes
	for i := 0; i < n; i++ {
		in, err := decode(raw[i*recordBytes:])
		if err != nil {
			r.err = fmt.Errorf("trace: record %d: %v", r.read+i, err)
			n = i
			break
		}
		buf[i] = in
	}
	r.read += n
	return n
}

// Err returns what ended the stream: nil at a clean end of file.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}
