package simrun_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/simrun"
)

// TestOptionsLandInMachine checks that every knob option ends up in the
// resolved config.Machine.
func TestOptionsLandInMachine(t *testing.T) {
	s, err := simrun.New("gcc",
		simrun.Cores(4),
		simrun.Fabric("mesh"),
		simrun.Coherence("directory"),
		simrun.DRAM("banked"),
		simrun.Prefetch("stride"),
		simrun.Predictor("tage"),
		simrun.Configure(func(m *config.Machine) { m.Core.ROBSize = 64 }),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := s.ResolvedMachine()
	if err != nil {
		t.Fatalf("ResolvedMachine: %v", err)
	}
	if m.Cores != 4 {
		t.Errorf("Cores = %d, want 4", m.Cores)
	}
	if m.Mem.Interconnect != "mesh" {
		t.Errorf("Interconnect = %q, want mesh", m.Mem.Interconnect)
	}
	if m.Mem.Coherence != "directory" {
		t.Errorf("Coherence = %q, want directory", m.Mem.Coherence)
	}
	if m.Mem.DRAMKind != "banked" {
		t.Errorf("DRAMKind = %q, want banked", m.Mem.DRAMKind)
	}
	if m.Mem.Prefetch != "stride" || m.Mem.PrefetchDegree != 2 {
		t.Errorf("Prefetch = %q degree %d, want stride degree 2", m.Mem.Prefetch, m.Mem.PrefetchDegree)
	}
	if m.Branch.Kind != "tage" {
		t.Errorf("Branch.Kind = %q, want tage", m.Branch.Kind)
	}
	if m.Core.ROBSize != 64 {
		t.Errorf("ROBSize = %d, want 64 (Configure not applied)", m.Core.ROBSize)
	}
}

// TestMachineOptionSetsThreads checks an explicit base machine determines
// the thread count when Cores is not given.
func TestMachineOptionSetsThreads(t *testing.T) {
	s := simrun.MustNew("blackscholes", simrun.Machine(config.Stacked3D(4)))
	if s.Threads() != 4 {
		t.Errorf("Threads = %d, want 4 from the Machine option", s.Threads())
	}
	m, _ := s.ResolvedMachine()
	if m.Mem.HasL2 {
		t.Errorf("Machine option base lost: HasL2 = true, want false (Stacked3D)")
	}
}

// TestBaselineAliases checks the baseline names map to the config zero
// values the memory hierarchy treats as its defaults.
func TestBaselineAliases(t *testing.T) {
	s := simrun.MustNew("gcc",
		simrun.Fabric("bus"), simrun.Coherence("moesi"),
		simrun.DRAM("fixed"), simrun.Prefetch("none"), simrun.Predictor("local"))
	m, _ := s.ResolvedMachine()
	if m.Mem.DRAMKind != "" {
		t.Errorf("DRAMKind = %q, want \"\" for fixed", m.Mem.DRAMKind)
	}
	if m.Mem.Prefetch != "" {
		t.Errorf("Prefetch = %q, want \"\" for none", m.Mem.Prefetch)
	}
}

// TestUnknownNamesRejected checks every closed name set errors eagerly.
func TestUnknownNamesRejected(t *testing.T) {
	cases := []struct {
		label string
		bench string
		opt   simrun.Option
	}{
		{"fabric", "gcc", simrun.Fabric("torus")},
		{"coherence", "gcc", simrun.Coherence("mosi")},
		{"dram", "gcc", simrun.DRAM("hbm")},
		{"prefetch", "gcc", simrun.Prefetch("markov")},
		{"predictor", "gcc", simrun.Predictor("neural")},
		{"model", "gcc", simrun.Model("analytic")},
		{"benchmark", "notabench", nil},
	}
	for _, c := range cases {
		var err error
		if c.opt != nil {
			_, err = simrun.New(c.bench, c.opt)
		} else {
			_, err = simrun.New(c.bench)
		}
		if err == nil {
			t.Errorf("%s: unknown name accepted", c.label)
		}
	}
}

// testModelCalls counts test-model factory invocations; the model is
// registered once per process (the registry rejects duplicates), so the
// test measures the delta under -count=N reruns.
var testModelCalls int

var registerTestModel = sync.OnceFunc(func() {
	simrun.RegisterModel("test-countdown", func(p simrun.CoreParams) sim.Core {
		testModelCalls++
		// Reuse the built-in one-IPC model under a new name: the
		// registry, not the model, is under test.
		f, _ := simrun.LookupModel("oneipc")
		return f(p)
	})
})

// TestRegistry checks registered models run through the driver and unknown
// models error with the registered list.
func TestRegistry(t *testing.T) {
	registerTestModel()
	before := testModelCalls
	s, err := simrun.New("gcc", simrun.Model("test-countdown"), simrun.Insts(2000), simrun.Cores(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls := testModelCalls - before; calls != 2 {
		t.Errorf("factory called %d times, want 2", calls)
	}
	if res.ModelLabel() != "test-countdown" {
		t.Errorf("ModelLabel = %q, want test-countdown", res.ModelLabel())
	}
	if res.TotalRetired == 0 || res.Cycles == 0 {
		t.Errorf("empty run: retired=%d cycles=%d", res.TotalRetired, res.Cycles)
	}

	_, err = simrun.New("gcc", simrun.Model("no-such-model"))
	if err == nil || !strings.Contains(err.Error(), "interval") {
		t.Errorf("unknown model error should list registered models, got %v", err)
	}
}

// TestRunMatchesSequentialBatch checks Batch returns results in input
// order, that parallel execution does not change simulated outcomes, and
// that every scenario ran.
func TestBatchOrderAndDeterminism(t *testing.T) {
	names := []string{"gcc", "mcf", "swim", "art", "twolf", "vpr"}
	mk := func() []*simrun.Scenario {
		scs := make([]*simrun.Scenario, len(names))
		for i, n := range names {
			scs[i] = simrun.MustNew(n, simrun.Insts(3000), simrun.Warmup(5000))
		}
		return scs
	}
	seq := simrun.Batch(context.Background(), mk(), simrun.BatchOpts{Workers: 1})
	par := simrun.Batch(context.Background(), mk(), simrun.BatchOpts{Workers: 4})
	if len(seq) != len(names) || len(par) != len(names) {
		t.Fatalf("result counts: seq=%d par=%d, want %d", len(seq), len(par), len(names))
	}
	for i := range names {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: errs seq=%v par=%v", names[i], seq[i].Err, par[i].Err)
		}
		if got := par[i].Scenario.Name(); got != names[i] {
			t.Errorf("result %d is %q, want %q (ordering)", i, got, names[i])
		}
		if seq[i].Result.Cycles != par[i].Result.Cycles {
			t.Errorf("%s: cycles differ across Workers: %d vs %d",
				names[i], seq[i].Result.Cycles, par[i].Result.Cycles)
		}
		if seq[i].Result.Cores[0].IPC != par[i].Result.Cores[0].IPC {
			t.Errorf("%s: IPC differs across Workers", names[i])
		}
	}
}

// TestBatchCancellation checks a cancelled context stops the pool early:
// in-flight runs are interrupted and unstarted scenarios never simulate.
func TestBatchCancellation(t *testing.T) {
	// Scenario big enough to never finish within the test timeout.
	big := func() *simrun.Scenario {
		return simrun.MustNew("gcc", simrun.Insts(500_000_000))
	}
	scs := []*simrun.Scenario{big(), big(), big(), big()}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := simrun.Batch(ctx, scs, simrun.BatchOpts{Workers: 2})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation did not stop the pool (took %v)", elapsed)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestBatchTimeout checks the per-scenario timeout fires independently of
// the batch context.
func TestBatchTimeout(t *testing.T) {
	scs := []*simrun.Scenario{simrun.MustNew("gcc", simrun.Insts(500_000_000))}
	results := simrun.Batch(context.Background(), scs,
		simrun.BatchOpts{Workers: 1, Timeout: 20 * time.Millisecond})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", results[0].Err)
	}
	if !results[0].Result.Interrupted {
		t.Errorf("timed-out run should report Interrupted")
	}
}

// TestBatchProgress checks the progress callback sees every completion.
func TestBatchProgress(t *testing.T) {
	scs := []*simrun.Scenario{
		simrun.MustNew("gcc", simrun.Insts(2000)),
		simrun.MustNew("mcf", simrun.Insts(2000)),
	}
	var seen []int
	simrun.Batch(context.Background(), scs, simrun.BatchOpts{
		Workers:  2,
		Progress: func(done, total int, r simrun.BatchResult) { seen = append(seen, done) },
	})
	if len(seen) != 2 || seen[len(seen)-1] != 2 {
		t.Errorf("progress calls = %v, want [1 2]", seen)
	}
}

// TestMixSlotsNoCrossCopyCoherence: with per-copy slots the copies of a
// mix never write each other's lines, so the run must see zero coherence
// invalidations — the phantom traffic the v1 shared address space used
// to charge.
func TestMixSlotsNoCrossCopyCoherence(t *testing.T) {
	s, err := simrun.New("",
		simrun.Mix("gcc", "mcf", "swim", "vpr"),
		simrun.Insts(8_000),
		simrun.KeepCores(),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if coh := res.Mem.Coherence().Stats(); coh.Invalidations != 0 {
		t.Fatalf("slot-disjoint mix produced %d cross-copy invalidations, want 0", coh.Invalidations)
	}
}
