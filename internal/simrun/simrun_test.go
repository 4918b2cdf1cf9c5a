package simrun_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simrun"
)

// build makes the scenario sp describes.
func build(t *testing.T, sp simrun.Spec) *simrun.Scenario {
	t.Helper()
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOptionsLandInMachine checks that every knob field ends up in the
// resolved config.Machine, on top of an explicit base machine.
func TestOptionsLandInMachine(t *testing.T) {
	base := config.Default(1)
	base.Core.ROBSize = 64
	s, err := simrun.Spec{
		Bench:     "gcc",
		Machine:   &base,
		Cores:     4,
		Fabric:    "mesh",
		Coherence: "directory",
		DRAM:      "banked",
		Prefetch:  "stride",
		Predictor: "tage",
	}.Scenario()
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
		t.Errorf("ROBSize = %d, want 64 (Machine base lost)", m.Core.ROBSize)
	}
}

// TestMachineOptionSetsThreads checks an explicit base machine determines
// the thread count when Cores is not given.
func TestMachineOptionSetsThreads(t *testing.T) {
	stacked := config.Stacked3D(4)
	s := build(t, simrun.Spec{Bench: "blackscholes", Machine: &stacked})
	if s.Threads() != 4 {
		t.Errorf("Threads = %d, want 4 from the Machine field", s.Threads())
	}
	m, _ := s.ResolvedMachine()
	if m.Mem.HasL2 {
		t.Errorf("Machine field base lost: HasL2 = true, want false (Stacked3D)")
	}
}

// TestBaselineAliases checks the spelled-out baseline knobs resolve to the
// Table 1 machine, whose names are the baselines.
func TestBaselineAliases(t *testing.T) {
	s := build(t, simrun.Spec{Bench: "gcc", Fabric: "bus", Coherence: "moesi", DRAM: "fixed", Prefetch: "none", Predictor: "local"})
	if m, _ := s.ResolvedMachine(); m != config.Default(1) {
		t.Errorf("baseline knobs resolve to %+v, want config.Default(1)", m)
	}
}

// TestUnknownMachineNamesRejected: a Spec.Machine naming a model no
// simulator has is refused when the scenario is built, naming the field,
// so it never reaches a run (branch.NewUnit and memhier.New panic on a
// name they do not build).
func TestUnknownMachineNamesRejected(t *testing.T) {
	for field, breakIt := range map[string]func(*config.Machine){
		"Branch.Kind":      func(m *config.Machine) { m.Branch.Kind = "bogus" },
		"Mem.Coherence":    func(m *config.Machine) { m.Mem.Coherence = "msi" },
		"Mem.Interconnect": func(m *config.Machine) { m.Mem.Interconnect = "torus" },
		"Mem.DRAMKind":     func(m *config.Machine) { m.Mem.DRAMKind = "hbm" },
		"Mem.Prefetch":     func(m *config.Machine) { m.Mem.Prefetch = "markov" },
	} {
		m := config.Default(1)
		breakIt(&m)
		_, err := simrun.Spec{Bench: "gcc", Insts: 2000, Machine: &m}.Scenario()
		if err == nil || !strings.Contains(err.Error(), field+" = ") {
			t.Errorf("unknown %s: Scenario() = %v, want an error naming the field", field, err)
		}
	}
}

// TestUnknownNamesRejected checks every closed name set errors eagerly.
func TestUnknownNamesRejected(t *testing.T) {
	for label, sp := range map[string]simrun.Spec{
		"fabric":    {Bench: "gcc", Fabric: "torus"},
		"coherence": {Bench: "gcc", Coherence: "mosi"},
		"dram":      {Bench: "gcc", DRAM: "hbm"},
		"prefetch":  {Bench: "gcc", Prefetch: "markov"},
		"predictor": {Bench: "gcc", Predictor: "neural"},
		"model":     {Bench: "gcc", Model: "analytic"},
		"benchmark": {Bench: "notabench"},
	} {
		if _, err := sp.Scenario(); err == nil {
			t.Errorf("%s: unknown name accepted", label)
		}
	}
}

// TestUnknownModel checks an unknown model is rejected listing the
// models the driver builds.
func TestUnknownModel(t *testing.T) {
	for _, name := range []string{"no-such-model", "one-ipc", "Interval"} {
		_, err := simrun.Spec{Bench: "gcc", Model: name}.Scenario()
		want := fmt.Sprintf("simrun: unknown model %q (registered: detailed, interval, oneipc)", name)
		if err == nil || err.Error() != want {
			t.Errorf("model %q: got %v, want %s", name, err, want)
		}
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
			scs[i] = build(t, simrun.Spec{Bench: n, Insts: 3000, Warmup: 5000})
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
		return build(t, simrun.Spec{Bench: "gcc", Insts: 500_000_000})
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

// TestBatchTimeout checks a deadline on the batch context interrupts an
// in-flight run and reports context.DeadlineExceeded.
func TestBatchTimeout(t *testing.T) {
	scs := []*simrun.Scenario{build(t, simrun.Spec{Bench: "gcc", Insts: 500_000_000})}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := simrun.Batch(ctx, scs, simrun.BatchOpts{Workers: 1})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", results[0].Err)
	}
	if !results[0].Result.Interrupted {
		t.Errorf("timed-out run should report Interrupted")
	}
}

// TestMixSlotsNoCrossCopyCoherence: with per-copy slots the copies of a
// mix never write each other's lines, so the run must see zero coherence
// invalidations — the phantom traffic the v1 shared address space used
// to charge.
func TestMixSlotsNoCrossCopyCoherence(t *testing.T) {
	s := build(t, simrun.Spec{Mix: []string{"gcc", "mcf", "swim", "vpr"}, Insts: 8_000, Report: true})
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if coh := res.Mem.Coherence().Stats(); coh.Invalidations != 0 {
		t.Fatalf("slot-disjoint mix produced %d cross-copy invalidations, want 0", coh.Invalidations)
	}
}
