package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tinyExt shrinks the extension experiments further: they run several
// machines per row.
func tinyExt() Opts {
	return Opts{Insts: 3_000, Warmup: 15_000, WorkScale: 0.02, Seed: 42}
}

func TestAblationModelStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := tinyExt().AblationModel()
	if len(tb.Rows) != len(ablationVariants) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(ablationVariants))
	}
	if tb.Rows[0][0] != "full" {
		t.Fatalf("first variant %q, want full", tb.Rows[0][0])
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tb.Columns))
		}
		for _, cell := range r[1:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("cell %q is not a percentage", cell)
			}
		}
	}
}

func TestFabricStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := tinyExt().Fabric()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 fabrics", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		cycles, err := strconv.ParseInt(r[1], 10, 64)
		if err != nil || cycles <= 0 {
			t.Fatalf("fabric %s: bad cycles %q", r[0], r[1])
		}
	}
}

func TestDRAMStudyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := tinyExt().DRAMStudy()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 benchmarks", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tb.Columns))
		}
		gain, err := strconv.ParseFloat(r[3], 64)
		if err != nil || gain <= 0 {
			t.Fatalf("%s: bad gain %q", r[0], r[3])
		}
		hit, err := strconv.ParseFloat(strings.TrimSuffix(r[4], "%"), 64)
		if err != nil || !strings.HasSuffix(r[4], "%") || hit < 0 || hit > 100 {
			t.Fatalf("%s: bad row-hit rate %q", r[0], r[4])
		}
	}
}

func TestPredictorsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := tinyExt().Predictors()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 predictors", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tb.Columns))
		}
		for i := 1; i < len(r); i += 2 {
			if !strings.HasSuffix(r[i], "%") {
				t.Fatalf("cell %q is not a misprediction percentage", r[i])
			}
		}
	}
}

func TestScale16Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := tinyExt().Scale16()
	if len(tb.Rows) != 4 { // 2 benchmarks x 2 fabrics
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tb.Columns))
		}
		// Normalized times must be positive and generally decreasing
		// with core count for the scaling benchmark.
		first, err1 := strconv.ParseFloat(r[2], 64)
		last, err2 := strconv.ParseFloat(r[len(r)-1], 64)
		if err1 != nil || err2 != nil || first <= 0 || last <= 0 {
			t.Fatalf("row %v has non-numeric cells", r)
		}
		if r[0] == "blackscholes" && last >= first {
			t.Fatalf("blackscholes does not scale: 1-core %v vs 32-core %v", first, last)
		}
	}
}
