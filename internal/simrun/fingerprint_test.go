package simrun

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/trace"
)

// seedOf is a spec's Seed field.
func seedOf(v int64) *int64 { return &v }

// build makes the scenario sp describes, with any code-only options.
func build(t *testing.T, sp Spec, opts ...Option) *Scenario {
	t.Helper()
	s, err := New(sp.Bench, append(sp.Options(), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fp(t *testing.T, sp Spec, opts ...Option) string {
	t.Helper()
	key, err := build(t, sp, opts...).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fp(t, Spec{Bench: "gcc", Cores: 2, Insts: 5000, Fabric: "mesh"})
	b := fp(t, Spec{Bench: "gcc", Cores: 2, Insts: 5000, Fabric: "mesh"})
	if a != b {
		t.Fatalf("same scenario, different fingerprints: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint is not a sha256 hex: %q", a)
	}
}

// The fingerprint addresses content, not spelling: scenarios that
// simulate identically share a key however they were written down.
func TestFingerprintSpellingInvariance(t *testing.T) {
	gcc := fp(t, Spec{Bench: "gcc"})
	// Defaulted seed vs the same seed made explicit.
	if a := fp(t, Spec{Bench: "gcc", Seed: seedOf(42)}); a != gcc {
		t.Errorf("explicit default seed changed the fingerprint")
	}
	// Copies 2 and Cores 2 build identical SPEC multi-program runs.
	if a, b := fp(t, Spec{Bench: "gcc", Copies: 2}), fp(t, Spec{Bench: "gcc", Cores: 2}); a != b {
		t.Errorf("Copies 2 and Cores 2 fingerprints differ")
	}
	// An explicit Table 1 machine vs the implicit default.
	m := config.Default(1)
	if a := fp(t, Spec{Bench: "gcc", Machine: &m}); a != gcc {
		t.Errorf("explicit default machine changed the fingerprint")
	}
	// The display label is presentation, not content.
	if a := fp(t, Spec{Bench: "gcc", Label: "point-7"}); a != gcc {
		t.Errorf("label changed the fingerprint")
	}
}

// TestEquivalentSpellingsShareAFingerprint: one simulation has one
// fingerprint. The default spec shares it with each baseline knob spelled
// out, and with a Spec.Machine that states every name and default of the
// Table 1 machine or leaves them all empty (or zero). A prefetcher's
// degree left at zero and stated as its default are one machine too.
func TestEquivalentSpellingsShareAFingerprint(t *testing.T) {
	stated, blank := config.Default(1), config.Default(1)
	stated.Branch.Kind = "local"
	stated.Mem.Coherence, stated.Mem.Interconnect, stated.Mem.DRAMKind, stated.Mem.Prefetch = "moesi", "bus", "fixed", "none"
	stated.Core.MaxOutstandingMisses, stated.Mem.DirectoryLatency, stated.Mem.NoCHopLatency, stated.Mem.NoCOccupancy = 32, 6, 1, 1
	stated.Mem.DRAMBanks, stated.Mem.DRAMRowBytes, stated.Mem.DRAMRowHit, stated.Mem.DRAMRowMiss = 8, 2048, 90, 180
	blank.Branch.Kind = ""
	blank.Mem.Coherence, blank.Mem.Interconnect, blank.Mem.DRAMKind, blank.Mem.Prefetch = "", "", "", ""
	blank.Core.MaxOutstandingMisses, blank.Mem.DirectoryLatency, blank.Mem.NoCHopLatency, blank.Mem.NoCOccupancy = 0, 0, 0, 0
	blank.Mem.DRAMBanks, blank.Mem.DRAMRowBytes, blank.Mem.DRAMRowHit, blank.Mem.DRAMRowMiss = 0, 0, 0, 0

	gcc := fp(t, Spec{Bench: "gcc"})
	for name, sp := range map[string]Spec{
		"fabric bus":         {Bench: "gcc", Fabric: "bus"},
		"coherence moesi":    {Bench: "gcc", Coherence: "moesi"},
		"dram fixed":         {Bench: "gcc", DRAM: "fixed"},
		"prefetch none":      {Bench: "gcc", Prefetch: "none"},
		"predictor local":    {Bench: "gcc", Predictor: "local"},
		"every baseline":     {Bench: "gcc", Fabric: "bus", Coherence: "moesi", DRAM: "fixed", Prefetch: "none", Predictor: "local"},
		"stated machine":     {Bench: "gcc", Machine: &stated},
		"blank machine":      {Bench: "gcc", Machine: &blank},
		"blank machine+knob": {Bench: "gcc", Machine: &blank, DRAM: "fixed"},
	} {
		if got := fp(t, sp); got != gcc {
			t.Errorf("%s: fingerprint %s, want the default spec's %s", name, got, gcc)
		}
	}

	nextline, degree1 := config.Default(1), config.Default(1)
	nextline.Mem.Prefetch, degree1.Mem.Prefetch, degree1.Mem.PrefetchDegree = "nextline", "nextline", 1
	if a, b := fp(t, Spec{Bench: "gcc", Machine: &nextline}), fp(t, Spec{Bench: "gcc", Machine: &degree1}); a != b {
		t.Errorf("nextline at degree 0 and degree 1: fingerprints %s and %s", a, b)
	}
}

// Every simulated-semantics knob must perturb the key: a collision here
// would let the cache serve a wrong result.
func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Bench: "gcc", Cores: 2, Insts: 5000, Warmup: 1000}
	with := func(f func(sp *Spec)) Spec {
		sp := base
		f(&sp)
		return sp
	}
	m, l2 := config.Default(2), config.Default(2)
	m.Core.ROBSize = 128
	l2.Mem.L2.SizeBytes = 1 << 20
	variants := map[string]Spec{
		"base":       base,
		"bench":      with(func(sp *Spec) { sp.Bench = "mcf" }),
		"model":      with(func(sp *Spec) { sp.Model = "oneipc" }),
		"cores":      with(func(sp *Spec) { sp.Cores = 4 }),
		"insts":      with(func(sp *Spec) { sp.Insts = 6000 }),
		"warmup":     with(func(sp *Spec) { sp.Warmup = 2000 }),
		"seed":       with(func(sp *Spec) { sp.Seed = seedOf(7) }),
		"fabric":     with(func(sp *Spec) { sp.Fabric = "ring" }),
		"coherence":  with(func(sp *Spec) { sp.Coherence = "directory" }),
		"dram":       with(func(sp *Spec) { sp.DRAM = "banked" }),
		"prefetch":   with(func(sp *Spec) { sp.Prefetch = "stride" }),
		"predictor":  with(func(sp *Spec) { sp.Predictor = "tage" }),
		"maxcycles":  with(func(sp *Spec) { sp.MaxCycles = 1 << 20 }),
		"keepcores":  with(func(sp *Spec) { sp.Report = true }),
		"perfect":    with(func(sp *Spec) { sp.Perfect = &memhier.Perfect{ISide: true} }),
		"ablation":   with(func(sp *Spec) { sp.Ablation = &core.Options{NoTaint: true} }),
		"mix":        with(func(sp *Spec) { sp.Bench, sp.Mix = "", []string{"gcc", "mcf"} }),
		"machine":    with(func(sp *Spec) { sp.Machine = &m }),
		"machine-l2": with(func(sp *Spec) { sp.Machine = &l2 }),
	}
	seen := map[string]string{}
	for name, sp := range variants {
		key := fp(t, sp)
		if prev, dup := seen[key]; dup {
			t.Errorf("fingerprint collision between %q and %q", name, prev)
		}
		seen[key] = name
	}
}

// PARSEC work scaling changes the simulated workload.
func TestFingerprintWorkScale(t *testing.T) {
	a := fp(t, Spec{Bench: "blackscholes", Cores: 2, WorkScale: 0.5})
	b := fp(t, Spec{Bench: "blackscholes", Cores: 2})
	if a == b {
		t.Fatalf("WorkScale did not change the fingerprint")
	}
}

func TestFingerprintStreamsUnsupported(t *testing.T) {
	stream := trace.NewSliceStream(make([]isa.Inst, 16))
	s := build(t, Spec{Label: "recorded"}, Streams([]trace.Stream{stream}, nil))
	if _, err := s.Fingerprint(); err == nil {
		t.Fatal("explicit-streams scenario produced a fingerprint")
	}
}
