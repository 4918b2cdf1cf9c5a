package simrun

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
)

// TestShapeFingerprints pins the identity of every scenario shape the
// front ends build: intervalsim's flags, the experiments tables at -quick
// sizing and a mix on an explicit machine. The fingerprints, thread counts
// and budgets were recorded when each shape was still spelled as a list of
// functional options; a Spec must resolve to the same scenario.
func TestShapeFingerprints(t *testing.T) {
	const maxCycles = 500_000_000 // experiments' runaway cap
	quick := Spec{Insts: 15_000, Warmup: 150_000, Seed: seedOf(42)}
	with := func(sp Spec, f func(sp *Spec)) Spec {
		f(&sp)
		return sp
	}
	flags := Spec{Model: "interval", Cores: 1, Insts: 100_000, Warmup: 600_000, Seed: seedOf(42),
		Fabric: "bus", Coherence: "moesi", DRAM: "fixed", Prefetch: "none", Predictor: "local"}
	rob, ring16 := config.Default(4), config.Default(16)
	rob.Core.ROBSize = 128
	ring16.Mem.Interconnect = "ring"
	parsec := func(bench, model string, m config.Machine) Spec {
		return Spec{Bench: bench, Model: model, Machine: &m, WorkScale: 0.25, Warmup: 150_000, Seed: seedOf(42), MaxCycles: maxCycles}
	}
	single := func(bench, model string, cores int, perfect memhier.Perfect, predictor string) Spec {
		return with(quick, func(sp *Spec) {
			sp.Bench, sp.Model, sp.Cores, sp.Perfect, sp.MaxCycles, sp.Predictor = bench, model, cores, &perfect, maxCycles, predictor
		})
	}

	for _, c := range []struct {
		name        string
		spec        Spec
		fingerprint string
		threads     int
		budget      uint64
	}{
		{"intervalsim defaults", with(flags, func(sp *Spec) { sp.Bench = "gcc" }),
			"0ebe97e3e1d995669693aba9c8536fd0d571692cf5dea8a47217b680aaf50bd4", 1, 100_000},
		{"intervalsim -copies 2 -json", with(flags, func(sp *Spec) { sp.Bench, sp.Copies, sp.Report = "mcf", 2, true }),
			"f6844bb3b22955e11ba2a5f111b09c3bf5cd4d000e362f99b37893bedc838cc4", 2, 200_000},
		{"intervalsim PARSEC -report on a mesh", with(flags, func(sp *Spec) {
			sp.Bench, sp.Cores, sp.Fabric, sp.DRAM, sp.Prefetch, sp.Report = "blackscholes", 2, "mesh", "banked", "stride", true
		}), "59246a4e152fc400676a3618af4d18b1fcc1ec863235d4528c2979d657052be9", 2, 800_000},
		{"experiments fig 4a", single("gcc", "detailed", 1, memhier.Perfect{ISide: true, L2: true}, "perfect"),
			"dd7873b4254574e0f9ac3f162709d6087ca7da52751c1d478ea480413f5261ff", 1, 15_000},
		{"experiments fig 6", single("mcf", "interval", 2, memhier.Perfect{}, ""),
			"efcd3264d4bd013119b005d4d34d499d5efe923704070d3995ad17803f3773f6", 2, 30_000},
		{"experiments ablation", with(single("gcc", "interval", 1, memhier.Perfect{}, ""), func(sp *Spec) { sp.Ablation = &core.Options{NoTaint: true} }),
			"3f8aff16f5655cf2df30bb1d984fb44ad950f9d1d190dce6fc3dfb4973ae4ebc", 1, 15_000},
		{"experiments predictors", with(single("vpr", "interval", 1, memhier.Perfect{}, "tage"), func(sp *Spec) { sp.Report = true }),
			"96f7f883266c0b7013228bcdc3500f49662dd51272ecc926e234e69ebe724891", 1, 15_000},
		{"experiments fig 7", parsec("blackscholes", "interval", config.Default(4)),
			"4d549379700a0b46cd1a5415f20f5bd8deb87ed919372e6058465b571cc55bef", 4, 200_000},
		{"experiments fig 8", parsec("canneal", "detailed", config.Stacked3D(4)),
			"9d3baf23114a5a30b5aaf5066c0793fe77ba45b95ef3bb26bca1bbc94a87808d", 4, 200_000},
		{"experiments scale16", parsec("streamcluster", "interval", ring16),
			"b01afa9eac2ce0ef28fd73eb0f678ab970338ddf0b26763f97d23dac56ca8203", 16, 200_000},
		{"experiments fabric", with(quick, func(sp *Spec) {
			sp.Label, sp.Mix, sp.Cores, sp.Fabric, sp.Report = "mesh mix", []string{"swim", "mcf", "gcc", "art"}, 8, "mesh", true
		}), "b8a90e37af72a20a139dacb7a41f6e89ede181746a2db0c1a03df6fbf4965cda", 8, 120_000},
		{"experiments dram banked", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "swim", "banked", true }),
			"4b9d52dc29d93cd1f5c996013d3239154df8ed2a7987897b34520e0eafcd87f0", 1, 15_000},
		{"experiments dram fixed", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "mgrid", "fixed", true }),
			"4f40e40360e7fef17f336340c5eec8c17feb7b541989bf50baf51dd6b7f5799e", 1, 15_000},
		{"mix on a 4-core machine", Spec{Mix: []string{"gcc", "mcf"}, Machine: &rob},
			"906a176ce209f4dbf4071bbdb5d67e1d773eb2b41308f4510a283a635978840e", 2, 200_000},
	} {
		s, err := c.spec.Scenario()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.fingerprint || s.Threads() != c.threads || s.TotalInstBudget() != c.budget {
			t.Errorf("%s: fingerprint %s, %d threads, budget %d; recorded %s, %d, %d",
				c.name, got, s.Threads(), s.TotalInstBudget(), c.fingerprint, c.threads, c.budget)
		}
	}

	// The machine the statistical engine times its clone of a detailed gcc
	// run with a stride prefetcher on: the run's own resolved machine, the
	// one its clone scenario resolved to when the clone ran as a nested run.
	m, err := build(t, Spec{Bench: "gcc", Model: "detailed", Prefetch: "stride", Insts: 2_000_000, Warmup: 200_000}).ResolvedMachine()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != "c62c3b0ca129bf1b83c52c8c1882bd58427593f801375591ccddde12b6a0a7f9" {
		t.Errorf("statistical clone machine %s", got)
	}
}

// TestRejectionTexts pins the error each rejected field gives, recorded
// when the checks lived in the functional options. The model and engine
// errors list their closed sets.
func TestRejectionTexts(t *testing.T) {
	for raw, want := range map[string]string{
		`{"bench":"gcc","cores":-1}`:                 "simrun: cores must be positive, got -1",
		`{"bench":"gcc","copies":-2}`:                "simrun: copies must be positive, got -2",
		`{"bench":"gcc","insts":-5}`:                 "simrun: insts must be positive, got -5",
		`{"bench":"gcc","warmup":-1}`:                "simrun: warmup must be non-negative, got -1",
		`{"bench":"blackscholes","work_scale":-0.5}`: "simrun: work scale must be positive, got -0.5",
		`{"bench":"gcc","max_cycles":-3}`:            "simrun: max cycles must be non-negative, got -3",
		`{"bench":"gcc","hostpar":-1}`:               "simrun: hostpar must be non-negative, got -1",
		`{"bench":"gcc","quantum":-1}`:               "simrun: epoch quantum must be non-negative, got -1",
		`{"bench":"gcc","model":"analytic"}`:         `simrun: unknown model "analytic" (registered: detailed, interval, oneipc)`,
		`{"bench":"gcc","engine":"warp"}`:            `simrun: unknown engine "warp" (registered: full, statistical; tiers, cheapest first: statistical < interval < detailed)`,
		`{"bench":"gcc","fabric":"torus"}`:           `simrun: unknown fabric "torus" (want bus, mesh, ring)`,
		`{"bench":"gcc","coherence":"mosi"}`:         `simrun: unknown coherence protocol "mosi" (want moesi, mesi, directory)`,
		`{"bench":"gcc","dram":"hbm"}`:               `simrun: unknown DRAM model "hbm" (want fixed, banked)`,
		`{"bench":"gcc","prefetch":"markov"}`:        `simrun: unknown prefetcher "markov" (want none, nextline, stride)`,
		`{"bench":"gcc","predictor":"neural"}`:       `simrun: unknown predictor "neural" (want local, gshare, bimodal, tournament, tage, perfect)`,
		// An empty mix is an absent one: the spec names no workload.
		`{"mix":[]}`:                  "simrun: no benchmark name and no explicit streams",
		`{"mix":["gcc",""]}`:          `simrun: unknown SPEC profile "" in mix`,
		`{"bench":"notabench"}`:       `simrun: unknown benchmark "notabench"`,
		`{"bench":"gcc","version":2}`: "simrun: spec is pinned to stream format v2, this build speaks v3: the formats are deliberately incompatible (v3 rebuilt the generator on a counter-based RNG with tabulated sampling, renumbering ALL generated results) — update the spec's version after reviewing its expected results",
	} {
		sp, err := ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sp.Scenario()
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v\nwant %s", raw, err, want)
		}
	}
}
