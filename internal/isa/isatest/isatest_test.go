package isatest

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestWritePinsV3Text pins the golden text itself: it is what fmt's %+v
// printed for the v3 struct, character for character.
func TestWritePinsV3Text(t *testing.T) {
	var b strings.Builder
	Write(&b, 193233, &isa.Inst{
		PC: 4226780, Class: isa.Load, Src1: 2, Src2: isa.RegNone, Dst: 40,
		Addr: 18691697673288, Taken: true, Target: 77, SyncID: 9,
	})
	const want = "{Seq:193233 PC:4226780 Class:load Src1:2 Src2:255 Dst:40 Addr:18691697673288 Taken:true Target:77 SyncID:9}|"
	if b.String() != want {
		t.Fatalf("golden text\n got %s\nwant %s", b.String(), want)
	}
}
