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
// functional options; a Spec must resolve to the same scenario. The
// fingerprints were re-pinned once, at fingerprint v4, whose body no longer
// spells the deleted wrong-path switch.
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
			"57c4816d7a6d817cee82a427fa926db437fa2fb626efc533773c4401a9b0b838", 1, 100_000},
		{"intervalsim -copies 2 -json", with(flags, func(sp *Spec) { sp.Bench, sp.Copies, sp.Report = "mcf", 2, true }),
			"bee239569a567128448f7ef6833c2b2a22af30d683e4ffa3db63af93bef4aa3b", 2, 200_000},
		{"intervalsim PARSEC -report on a mesh", with(flags, func(sp *Spec) {
			sp.Bench, sp.Cores, sp.Fabric, sp.DRAM, sp.Prefetch, sp.Report = "blackscholes", 2, "mesh", "banked", "stride", true
		}), "6f056aa9c7e1fbec5daae0aa62eb7cadda475a04b2262611d7fcadcaccc47a8f", 2, 800_000},
		{"experiments fig 4a", single("gcc", "detailed", 1, memhier.Perfect{ISide: true, L2: true}, "perfect"),
			"b4f110cad32dc82be778499aec6d6c05ebe1beb839550addc2401c32a51d3d0d", 1, 15_000},
		{"experiments fig 6", single("mcf", "interval", 2, memhier.Perfect{}, ""),
			"e266db95d37947c670db59066fa83fe9e697a3557c665ed1a4232fe7f41853fd", 2, 30_000},
		{"experiments ablation", with(single("gcc", "interval", 1, memhier.Perfect{}, ""), func(sp *Spec) { sp.Ablation = &core.Options{NoTaint: true} }),
			"a2db72037f953d58fe95c7a9a6fb4048f5d6ac3e309c3e0ac01220fac30da3e4", 1, 15_000},
		{"experiments predictors", with(single("vpr", "interval", 1, memhier.Perfect{}, "tage"), func(sp *Spec) { sp.Report = true }),
			"9c3b5f2e7d33344fe9e7785c2a0c4c1a14418b9cf35060a29d47e3689bfc6d0c", 1, 15_000},
		{"experiments fig 7", parsec("blackscholes", "interval", config.Default(4)),
			"ad08ee475fdd2f16977f1c55d51a054940d2a78f68a9f95334652d0e623a2d6f", 4, 200_000},
		{"experiments fig 8", parsec("canneal", "detailed", config.Stacked3D(4)),
			"ca047c6837f5eda21d9e12c352b684f4f0ceb4083fbe62f00123a5b5529679c9", 4, 200_000},
		{"experiments scale16", parsec("streamcluster", "interval", ring16),
			"33974862f5f8b1165fdbb3bab825050633c107148e86d97a6f7b594fa029a54d", 16, 200_000},
		{"experiments fabric", with(quick, func(sp *Spec) {
			sp.Label, sp.Mix, sp.Cores, sp.Fabric, sp.Report = "mesh mix", []string{"swim", "mcf", "gcc", "art"}, 8, "mesh", true
		}), "dbc535c8c5226ac22f3c4a329348cc377708d0a1f96d70e637b286c19b10174f", 8, 120_000},
		{"experiments dram banked", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "swim", "banked", true }),
			"b5790d52fd9bfa168d89d741da5aa898c7bef6bde40fb41e981294e68b1aa5bc", 1, 15_000},
		{"experiments dram fixed", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "mgrid", "fixed", true }),
			"97aeb7d49184edfea666bdc91df41002c5ef49309307af35394050e22b554815", 1, 15_000},
		{"mix on a 4-core machine", Spec{Mix: []string{"gcc", "mcf"}, Machine: &rob},
			"be3c4a3e0477ae8ce00bf987d851dc9ea49a4b0d0e4bb6a2dea0c853254e7b36", 2, 200_000},
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
