package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// TestFigureGoldens pins every deterministic table at Quick sizing: each
// testdata/<id>.golden is what `experiments -quick -fig <id>` prints, the
// table's Format() and the newline after it. A model change therefore
// shows up as a reviewed diff of the paper's figures, printed beside the
// paper's own numbers. Figures 9 and 10 measure host wall-clock time and
// are not pinned. Simulated results do not depend on Jobs.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Quick()
	o.Jobs = runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		id  string
		run func() Table
	}{
		{"4a", func() Table { return o.Fig4("4a") }},
		{"4b", func() Table { return o.Fig4("4b") }},
		{"4c", func() Table { return o.Fig4("4c") }},
		{"4d", func() Table { return o.Fig4("4d") }},
		{"5", o.Fig5},
		{"6", o.Fig6},
		{"7", o.Fig7},
		{"8", o.Fig8},
		{"ablation", o.Ablation},
		{"model-ablation", o.AblationModel},
		{"fabric", o.Fabric},
		{"dram", o.DRAMStudy},
		{"scale16", o.Scale16},
		{"predictors", o.Predictors},
	} {
		t.Run(c.id, func(t *testing.T) {
			tb := c.run()
			got := tb.Format() + "\n"
			path := filepath.Join("testdata", c.id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("-fig %s differs from %s (rerun with -update after a reviewed model change):\n%s\nwant:\n%s",
					c.id, path, got, want)
			}
		})
	}
}
