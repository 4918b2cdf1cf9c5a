// Package isatest holds the test helper the stream goldens share.
package isatest

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// Write prints one instruction the way the stream goldens hash it: the
// fields by name in the order stream format v3 pinned them (which was
// fmt's %+v of the struct as it was laid out then), closed by '|'. The
// goldens hash this text, so they pin the stream and not isa.Inst's
// layout; the order here must never follow a reordering of the struct.
func Write(w io.Writer, in *isa.Inst) {
	fmt.Fprintf(w, "{Seq:%d PC:%d Class:%v Src1:%d Src2:%d Dst:%d Addr:%d Taken:%t Target:%d SyncID:%d}|",
		in.Seq, in.PC, in.Class, in.Src1, in.Src2, in.Dst, in.Addr, in.Taken, in.Target, in.SyncID)
}
