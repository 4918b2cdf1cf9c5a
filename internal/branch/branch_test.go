package branch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestLocalLearnsLoop(t *testing.T) {
	l := NewLocal(64, 12, 4096)
	// A loop branch: taken 7 times, then not taken, repeating. A 12-bit
	// local history distinguishes every position, so after training the
	// predictor should be nearly perfect.
	pc := uint64(0x40)
	miss := 0
	for iter := 0; iter < 200; iter++ {
		for k := 0; k < 8; k++ {
			taken := k != 7
			if l.Predict(pc, taken) != taken && iter > 10 {
				miss++
			}
		}
	}
	if miss > 10 {
		t.Fatalf("local predictor missed %d times on a trained loop", miss)
	}
}

func TestLocalBiased(t *testing.T) {
	l := NewLocal(64, 12, 4096)
	rng := rand.New(rand.NewSource(7))
	miss := 0
	n := 2000
	for i := 0; i < n; i++ {
		taken := rng.Float64() < 0.95
		if l.Predict(0x80, taken) != taken {
			miss++
		}
	}
	if rate := float64(miss) / float64(n); rate > 0.15 {
		t.Fatalf("miss rate %.2f on a 95%%-biased branch, want < 0.15", rate)
	}
}

func TestGShareLearnsAlternating(t *testing.T) {
	g := NewGShare(4096, 12)
	miss := 0
	for i := 0; i < 500; i++ {
		taken := i%2 == 0
		if g.Predict(0x100, taken) != taken && i > 50 {
			miss++
		}
	}
	if miss > 10 {
		t.Fatalf("gshare missed %d times on an alternating branch", miss)
	}
}

func TestBimodalBias(t *testing.T) {
	b := NewBimodal(1024)
	for i := 0; i < 10; i++ {
		b.Predict(0x200, true)
	}
	if !b.Predict(0x200, true) {
		t.Fatal("bimodal not saturated taken after training")
	}
}

func TestPerfectNeverWrong(t *testing.T) {
	p := Perfect{}
	for i := 0; i < 100; i++ {
		taken := i%3 == 0
		if p.Predict(uint64(i), taken) != taken {
			t.Fatal("perfect predictor was wrong")
		}
	}
}

func TestBTBHitMissAndUpdate(t *testing.T) {
	b := NewBTB(64, 4)
	if present, _ := b.Lookup(0x400, 0x800); present {
		t.Fatal("cold BTB lookup present")
	}
	b.Update(0x400, 0x800)
	present, match := b.Lookup(0x400, 0x800)
	if !present || !match {
		t.Fatalf("lookup after update = (%t,%t)", present, match)
	}
	_, match = b.Lookup(0x400, 0x900)
	if match {
		t.Fatal("stale target matched")
	}
}

func TestRASMatchedCallsReturns(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Fatalf("pop = (%#x,%t), want 0x200", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Fatalf("pop = (%#x,%t), want 0x100", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty RAS succeeded")
	}
}

func TestRASOverflowWrapsLikeHardware(t *testing.T) {
	r := NewRAS(2)
	r.Push(0x1)
	r.Push(0x2)
	r.Push(0x3) // overwrites the oldest
	if a, _ := r.Pop(); a != 0x3 {
		t.Fatalf("pop = %#x, want 0x3", a)
	}
	if a, _ := r.Pop(); a != 0x2 {
		t.Fatalf("pop = %#x, want 0x2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("depth not bounded by capacity")
	}
}

func unitCfg(kind string) config.BranchPredictor {
	c := config.Default(1).Branch
	c.Kind = kind
	return c
}

func TestUnitDeepCallChain(t *testing.T) {
	u := NewUnit(unitCfg("local"))
	// Matched call/return nesting within RAS depth never mispredicts
	// returns once the direction predictor knows calls are taken.
	var addrs []uint64
	misses := 0
	for rep := 0; rep < 20; rep++ {
		for d := 0; d < 8; d++ {
			pc := uint64(0x1000 + d*4)
			in := isa.Inst{Class: isa.Call, PC: pc, Taken: true, Target: 0x8000}
			u.Predict(&in)
			addrs = append(addrs, pc+4)
		}
		for d := 7; d >= 0; d-- {
			ret := isa.Inst{Class: isa.Return, PC: 0x9000, Taken: true, Target: addrs[len(addrs)-1]}
			addrs = addrs[:len(addrs)-1]
			if u.Predict(&ret) && rep > 2 {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Fatalf("%d return mispredictions on matched calls", misses)
	}
}

func TestUnitReturnMispredictOnEmptyRAS(t *testing.T) {
	u := NewUnit(unitCfg("local"))
	ret := isa.Inst{Class: isa.Return, PC: 0x10, Taken: true, Target: 0x20}
	if !u.Predict(&ret) {
		t.Fatal("return with empty RAS predicted correctly")
	}
}

func TestUnitBTBMissOnFirstTaken(t *testing.T) {
	u := NewUnit(unitCfg("bimodal"))
	br := isa.Inst{Class: isa.Branch, PC: 0x40, Taken: true, Target: 0x80}
	// First encounter: even if direction guesses taken, the target is
	// unknown -> misfetch. Train until direction saturates, then the
	// BTB should supply the target.
	u.Predict(&br)
	u.Predict(&br)
	u.Predict(&br)
	if u.Predict(&br) {
		t.Fatal("trained taken branch with known target mispredicted")
	}
}

func TestUnitPerfectIgnoresStructures(t *testing.T) {
	u := NewUnit(unitCfg("perfect"))
	for i := 0; i < 50; i++ {
		in := isa.Inst{Class: isa.Return, PC: uint64(i), Taken: true, Target: uint64(i * 16)}
		if u.Predict(&in) {
			t.Fatal("perfect unit mispredicted a return")
		}
	}
	if u.MispredictRate() != 0 {
		t.Fatal("perfect unit has nonzero mispredict rate")
	}
}

func TestUnitStatsAndReset(t *testing.T) {
	u := NewUnit(unitCfg("local"))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		in := isa.Inst{Class: isa.Branch, PC: uint64(rng.Intn(16)) * 4, Taken: rng.Intn(2) == 0, Target: 0x1234}
		u.Predict(&in)
	}
	if u.Lookups != 500 {
		t.Fatalf("lookups = %d, want 500", u.Lookups)
	}
	if u.Mispredictions == 0 {
		t.Fatal("random branches produced zero mispredictions")
	}
	u.ResetStats()
	if u.Lookups != 0 || u.Mispredictions != 0 || u.MispredictRate() != 0 {
		t.Fatal("ResetStats left counters")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown predictor kind did not panic")
		}
	}()
	NewUnit(unitCfg("nonsense"))
}

// TestUnitEntriesMatchConfig: the machine budget counts, for every kind,
// the entries NewUnit builds (config.BranchPredictor.Entries), so the two
// cannot drift apart.
func TestUnitEntriesMatchConfig(t *testing.T) {
	for _, kind := range config.Names("Branch.Kind") {
		cfg := unitCfg(kind)
		u := NewUnit(cfg)
		n := u.btb.inner.Frames() + len(u.ras.stack)
		switch d := u.dir.(type) {
		case *Local:
			n += len(d.histories) + len(d.pht)
		case *GShare:
			n += len(d.pht)
		case *Bimodal:
			n += len(d.pht)
		case *Tournament:
			n += len(d.bimodal.pht) + len(d.gshare.pht) + len(d.choose)
		case *TAGE:
			n += len(d.base.pht)
			for _, tb := range d.tables {
				n += len(tb.entries)
			}
		case Perfect:
		default:
			t.Fatalf("%s: uncounted direction predictor %T", kind, d)
		}
		if want := cfg.Entries(); n != want {
			t.Errorf("%s: NewUnit builds %d entries, config counts %d", kind, n, want)
		}
	}
}

// Property: any direction predictor, given a perfectly biased branch,
// converges to at most a handful of mispredictions after warmup.
func TestQuickPredictorsConvergeOnConstantBranch(t *testing.T) {
	f := func(pcSeed uint16, taken bool) bool {
		pc := uint64(pcSeed) * 4
		for _, d := range []DirectionPredictor{
			NewLocal(64, 12, 1024), NewGShare(1024, 8), NewBimodal(512),
		} {
			miss := 0
			for i := 0; i < 100; i++ {
				if d.Predict(pc, taken) != taken && i > 10 {
					miss++
				}
			}
			if miss != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTournamentBeatsComponentsOnMixedBranches(t *testing.T) {
	// Branch A is pattern-based (gshare territory), branch B is biased
	// (bimodal territory): the tournament should track both well.
	tour := NewTournament(4096, 12)
	rng := rand.New(rand.NewSource(11))
	miss := 0
	n := 4000
	for i := 0; i < n; i++ {
		// A: alternating pattern.
		ta := i%2 == 0
		if tour.Predict(0x100, ta) != ta && i > 400 {
			miss++
		}
		// B: 95% biased.
		tb := rng.Float64() < 0.95
		if tour.Predict(0x200, tb) != tb && i > 400 {
			miss++
		}
	}
	if rate := float64(miss) / float64(2*(n-400)); rate > 0.08 {
		t.Fatalf("tournament miss rate %.3f on mixed branches", rate)
	}
}

func TestTournamentChooserAdapts(t *testing.T) {
	tour := NewTournament(1024, 10)
	// Pure alternating branch: gshare learns it, bimodal cannot; after
	// training the tournament must be near-perfect.
	miss := 0
	for i := 0; i < 1000; i++ {
		taken := i%2 == 0
		if tour.Predict(0x40, taken) != taken && i > 100 {
			miss++
		}
	}
	if miss > 10 {
		t.Fatalf("tournament missed %d times on an alternating branch", miss)
	}
}

func TestUnitTournamentKind(t *testing.T) {
	u := NewUnit(unitCfg("tournament"))
	in := isa.Inst{Class: isa.Branch, PC: 0x80, Taken: true, Target: 0x100}
	for i := 0; i < 20; i++ {
		u.Predict(&in)
	}
	if u.Lookups != 20 {
		t.Fatalf("lookups = %d", u.Lookups)
	}
}
