package multicore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// knobRun executes a small multi-program run on the given machine and
// model, returning the result with cores kept.
func knobRun(t *testing.T, m config.Machine, model Model, opts core.Options) Result {
	t.Helper()
	streams := make([]trace.Stream, m.Cores)
	warms := make([]trace.Stream, m.Cores)
	mix := []string{"gcc", "swim", "mcf", "art"}
	for i := range streams {
		p := workload.SPECByName(mix[i%len(mix)])
		streams[i] = trace.NewLimit(workload.New(p, 0, 1, int64(42+i)), 5_000)
		warms[i] = workload.New(p, 0, 1, int64(1042+i))
	}
	res := Run(RunConfig{
		Machine:     m,
		Model:       model,
		Ablation:    opts,
		WarmupInsts: 50_000,
		Warmup:      warms,
		KeepCores:   true,
		MaxCycles:   200_000_000,
	}, streams)
	if res.TimedOut {
		t.Fatal("run timed out")
	}
	return res
}

// TestAllKnobsTogether is the kitchen-sink integration test: mesh fabric,
// directory coherence, banked DRAM, stride prefetching, TAGE prediction
// and a tight MLP cap, all at once, under both core models. Every
// instruction must retire and the coherence engine must stay consistent.
func TestAllKnobsTogether(t *testing.T) {
	m := config.Default(4)
	m.Mem.Interconnect = "mesh"
	m.Mem.Coherence = "directory"
	m.Mem.DRAMKind = "banked"
	m.Mem.Prefetch = "stride"
	m.Mem.PrefetchDegree = 2
	m.Branch.Kind = "tage"
	m.Core.MaxOutstandingMisses = 4

	for _, model := range []Model{Interval, Detailed} {
		res := knobRun(t, m, model, core.Options{})
		if res.TotalRetired != 4*5_000 {
			t.Fatalf("%v: retired %d, want 20000", model, res.TotalRetired)
		}
		if msg := res.Mem.Coherence().CheckInvariants(); msg != "" {
			t.Fatalf("%v: coherence invariant violated: %s", model, msg)
		}
		// A 3x2 mesh puts core 0 two hops from the hub; a bus is one.
		if hops := res.Mem.Fabric().Hops(0); hops != 2 {
			t.Fatalf("%v: core 0 is %d hops from the hub, want 2 on a 3x2 mesh", model, hops)
		}
	}
}

// TestKnobsChangeTiming verifies each knob actually changes machine
// behaviour relative to the Table 1 baseline (no silently dead
// configuration paths).
func TestKnobsChangeTiming(t *testing.T) {
	base := knobRun(t, config.Default(4), Interval, core.Options{}).Cycles
	mutations := []struct {
		name   string
		mutate func(*config.Machine)
	}{
		{"mesh", func(m *config.Machine) { m.Mem.Interconnect = "mesh"; m.Mem.NoCHopLatency = 4 }},
		{"ring", func(m *config.Machine) { m.Mem.Interconnect = "ring"; m.Mem.NoCHopLatency = 4 }},
		{"directory", func(m *config.Machine) { m.Mem.Coherence = "directory"; m.Mem.DirectoryLatency = 30 }},
		{"banked", func(m *config.Machine) { m.Mem.DRAMKind = "banked" }},
		{"mlp-cap", func(m *config.Machine) { m.Core.MaxOutstandingMisses = 1 }},
		{"bimodal", func(m *config.Machine) { m.Branch.Kind = "bimodal" }},
	}
	for _, mu := range mutations {
		m := config.Default(4)
		mu.mutate(&m)
		got := knobRun(t, m, Interval, core.Options{}).Cycles
		if got == base {
			t.Errorf("%s: cycles identical to baseline (%d) — knob has no effect", mu.name, base)
		}
	}
}

// TestAblationsRunToCompletion runs every model-ablation variant through
// the full multi-core driver: ablations change timing, never correctness.
func TestAblationsRunToCompletion(t *testing.T) {
	variants := []core.Options{
		{NoROBFillHiding: true},
		{FlushOldWindow: true},
		{NoOverlapScan: true},
		{NoTaint: true},
		{NoDispatchFloor: true},
		{NoROBFillHiding: true, FlushOldWindow: true, NoOverlapScan: true,
			NoTaint: true, NoDispatchFloor: true},
	}
	for _, v := range variants {
		res := knobRun(t, config.Default(2), Interval, v)
		if res.TotalRetired != 2*5_000 {
			t.Errorf("%s: retired %d, want 10000", v.Name(), res.TotalRetired)
		}
	}
}

// TestDeterminismAcrossKnobs re-runs the same configuration twice and
// demands bit-identical cycle counts (the whole harness is seeded).
func TestDeterminismAcrossKnobs(t *testing.T) {
	m := config.Default(4)
	m.Mem.Interconnect = "ring"
	m.Mem.Coherence = "directory"
	m.Mem.DRAMKind = "banked"
	a := knobRun(t, m, Interval, core.Options{})
	b := knobRun(t, m, Interval, core.Options{})
	if a.Cycles != b.Cycles || a.TotalRetired != b.TotalRetired {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/retired",
			a.Cycles, a.TotalRetired, b.Cycles, b.TotalRetired)
	}
}
