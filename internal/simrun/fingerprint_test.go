package simrun

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/trace"
)

func fp(t *testing.T, bench string, opts ...Option) string {
	t.Helper()
	s, err := New(bench, opts...)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fp(t, "gcc", Cores(2), Insts(5000), Fabric("mesh"))
	b := fp(t, "gcc", Cores(2), Insts(5000), Fabric("mesh"))
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
	// Defaulted seed vs the same seed made explicit.
	if a, b := fp(t, "gcc"), fp(t, "gcc", Seed(42)); a != b {
		t.Errorf("explicit default seed changed the fingerprint")
	}
	// Copies(2) and Cores(2) build identical SPEC multi-program runs.
	if a, b := fp(t, "gcc", Copies(2)), fp(t, "gcc", Cores(2)); a != b {
		t.Errorf("Copies(2) and Cores(2) fingerprints differ")
	}
	// An explicit Table 1 machine vs the implicit default.
	if a, b := fp(t, "gcc", Machine(config.Default(1))), fp(t, "gcc"); a != b {
		t.Errorf("explicit default machine changed the fingerprint")
	}
	// The display label is presentation, not content.
	if a, b := fp(t, "gcc", Label("point-7")), fp(t, "gcc"); a != b {
		t.Errorf("label changed the fingerprint")
	}
}

// Every simulated-semantics knob must perturb the key: a collision here
// would let the cache serve a wrong result.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() []Option {
		return []Option{Cores(2), Insts(5000), Warmup(1000)}
	}
	variants := map[string]func() (string, []Option){
		"base":      func() (string, []Option) { return "gcc", base() },
		"bench":     func() (string, []Option) { return "mcf", base() },
		"model":     func() (string, []Option) { return "gcc", append(base(), Model("oneipc")) },
		"cores":     func() (string, []Option) { return "gcc", []Option{Cores(4), Insts(5000), Warmup(1000)} },
		"insts":     func() (string, []Option) { return "gcc", []Option{Cores(2), Insts(6000), Warmup(1000)} },
		"warmup":    func() (string, []Option) { return "gcc", []Option{Cores(2), Insts(5000), Warmup(2000)} },
		"seed":      func() (string, []Option) { return "gcc", append(base(), Seed(7)) },
		"fabric":    func() (string, []Option) { return "gcc", append(base(), Fabric("ring")) },
		"coherence": func() (string, []Option) { return "gcc", append(base(), Coherence("directory")) },
		"dram":      func() (string, []Option) { return "gcc", append(base(), DRAM("banked")) },
		"prefetch":  func() (string, []Option) { return "gcc", append(base(), Prefetch("stride")) },
		"predictor": func() (string, []Option) { return "gcc", append(base(), Predictor("tage")) },
		"maxcycles": func() (string, []Option) { return "gcc", append(base(), MaxCycles(1<<20)) },
		"keepcores": func() (string, []Option) { return "gcc", append(base(), KeepCores()) },
		"perfect":   func() (string, []Option) { return "gcc", append(base(), Perfect(memhier.Perfect{ISide: true})) },
		"ablation":  func() (string, []Option) { return "gcc", append(base(), Ablation(core.Options{NoTaint: true})) },
		"mix":       func() (string, []Option) { return "", append(base(), Mix("gcc", "mcf")) },
		"machine": func() (string, []Option) {
			m := config.Default(2)
			m.Core.ROBSize = 128
			return "gcc", append(base(), Machine(m))
		},
		"machine-l2": func() (string, []Option) {
			m := config.Default(2)
			m.Mem.L2.SizeBytes = 1 << 20
			return "gcc", append(base(), Machine(m))
		},
	}
	seen := map[string]string{}
	for name, build := range variants {
		bench, opts := build()
		key := fp(t, bench, opts...)
		if prev, dup := seen[key]; dup {
			t.Errorf("fingerprint collision between %q and %q", name, prev)
		}
		seen[key] = name
	}
}

// PARSEC work scaling changes the simulated workload.
func TestFingerprintWorkScale(t *testing.T) {
	a := fp(t, "blackscholes", Cores(2), WorkScale(0.5))
	b := fp(t, "blackscholes", Cores(2))
	if a == b {
		t.Fatalf("WorkScale did not change the fingerprint")
	}
}

func TestFingerprintStreamsUnsupported(t *testing.T) {
	stream := trace.NewSliceStream(make([]isa.Inst, 16))
	s, err := New("", Streams([]trace.Stream{stream}, nil), Label("recorded"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fingerprint(); err == nil {
		t.Fatal("explicit-streams scenario produced a fingerprint")
	}
}
