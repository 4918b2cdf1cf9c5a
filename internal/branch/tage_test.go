package branch

import (
	"testing"

	"repro/internal/config"
)

// mispredictRate drives predictor p with outcomes produced by gen and
// returns the misprediction fraction over n branches.
func mispredictRate(p DirectionPredictor, gen func(i int) (pc uint64, taken bool), n int) float64 {
	miss := 0
	for i := 0; i < n; i++ {
		pc, taken := gen(i)
		if p.Predict(pc, taken) != taken {
			miss++
		}
	}
	return float64(miss) / float64(n)
}

func TestTAGELearnsBiasedBranch(t *testing.T) {
	p := NewTAGE(1024)
	rate := mispredictRate(p, func(i int) (uint64, bool) {
		return 0x400100, true
	}, 2000)
	if rate > 0.02 {
		t.Fatalf("always-taken mispredict rate %.3f", rate)
	}
}

func TestTAGELearnsLongPeriodicPattern(t *testing.T) {
	// A period-24 pattern defeats a bimodal predictor and strains a
	// short-history gshare; TAGE's long-history tables learn it.
	pattern := make([]bool, 24)
	for i := range pattern {
		pattern[i] = i%3 == 0 || i%7 == 0
	}
	gen := func(i int) (uint64, bool) { return 0x400100, pattern[i%len(pattern)] }

	tage := NewTAGE(1024)
	bimodal := NewBimodal(1024)
	// Training phase.
	mispredictRate(tage, gen, 4000)
	mispredictRate(bimodal, gen, 4000)
	// Measurement phase.
	tr := mispredictRate(tage, gen, 4000)
	br := mispredictRate(bimodal, gen, 4000)
	if tr >= br {
		t.Fatalf("TAGE %.3f not better than bimodal %.3f on periodic pattern", tr, br)
	}
	if tr > 0.10 {
		t.Fatalf("TAGE mispredict rate %.3f on a learnable period-24 pattern", tr)
	}
}

func TestTAGEHandlesManyBranches(t *testing.T) {
	// Interleaved biased branches at distinct PCs: tags must keep them
	// separate.
	p := NewTAGE(1024)
	gen := func(i int) (uint64, bool) {
		pc := 0x400000 + uint64(i%16)*4
		return pc, i%16 < 8
	}
	mispredictRate(p, gen, 4000) // train
	if rate := mispredictRate(p, gen, 4000); rate > 0.05 {
		t.Fatalf("mispredict rate %.3f across 16 biased branches", rate)
	}
}

func TestTAGEPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two table accepted")
		}
	}()
	NewTAGE(1000)
}

func TestUnitAcceptsTAGE(t *testing.T) {
	cfg := config.Default(1).Branch
	cfg.Kind = "tage"
	u := NewUnit(cfg)
	if u == nil {
		t.Fatal("nil unit")
	}
}
