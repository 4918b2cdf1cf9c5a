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
// fingerprints were re-pinned at fingerprint v4, whose body no longer
// spells the deleted wrong-path switch, and at v5, whose body carries the
// machine resolved (every name and default written out).
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
			"7c228b8321a970ccb3bb3696c19f4dd01bd5d5ad3f66983b9a6ebe40f1b0a5c8", 1, 100_000},
		{"intervalsim -copies 2 -json", with(flags, func(sp *Spec) { sp.Bench, sp.Copies, sp.Report = "mcf", 2, true }),
			"32d00c234e24c3b5d42615db48080937ac45e9e51329e392c5545d7fac6aefb2", 2, 200_000},
		{"intervalsim PARSEC -report on a mesh", with(flags, func(sp *Spec) {
			sp.Bench, sp.Cores, sp.Fabric, sp.DRAM, sp.Prefetch, sp.Report = "blackscholes", 2, "mesh", "banked", "stride", true
		}), "e365724843206ee4811cded895180ecfe56b23d27cad38d1b43fc8660f9b3524", 2, 800_000},
		{"experiments fig 4a", single("gcc", "detailed", 1, memhier.Perfect{ISide: true, L2: true}, "perfect"),
			"b6c2b29afb421355f61c374dfd901c0c964efb8723dea4aa6c656495f1d0aa78", 1, 15_000},
		{"experiments fig 6", single("mcf", "interval", 2, memhier.Perfect{}, ""),
			"9404c2324684f94aef7665ad155aca175fe364f6ece3f22b53fdc4fa584d19a1", 2, 30_000},
		{"experiments ablation", with(single("gcc", "interval", 1, memhier.Perfect{}, ""), func(sp *Spec) { sp.Ablation = &core.Options{NoTaint: true} }),
			"503acc985c32777d48821924946dd4b89e6baa4259fc6d33e7dfcda1f4ca8b09", 1, 15_000},
		{"experiments predictors", with(single("vpr", "interval", 1, memhier.Perfect{}, "tage"), func(sp *Spec) { sp.Report = true }),
			"34b7ad855c0983cf9ef1dfb1de402dfd97887c11c8475554513a0d40f8696d63", 1, 15_000},
		{"experiments fig 7", parsec("blackscholes", "interval", config.Default(4)),
			"6b06433142fb5f52723dbebef0d46de34addbf97daae5e104eafde452673938f", 4, 200_000},
		{"experiments fig 8", parsec("canneal", "detailed", config.Stacked3D(4)),
			"fc50f5fd9b6003f924821999895ebb87308177130aebc466f0b8ec35f0f08b3d", 4, 200_000},
		{"experiments scale16", parsec("streamcluster", "interval", ring16),
			"2b7b907b2cf7637bc20198a42529e152808ed4cc62b0bcf89589c9e23cdb606d", 16, 200_000},
		{"experiments fabric", with(quick, func(sp *Spec) {
			sp.Label, sp.Mix, sp.Cores, sp.Fabric, sp.Report = "mesh mix", []string{"swim", "mcf", "gcc", "art"}, 8, "mesh", true
		}), "eaf5f99e8e7377c745b15ed43473df0cd035a87d828864a6dd7392d209677636", 8, 120_000},
		{"experiments dram banked", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "swim", "banked", true }),
			"ed1122cf53e896403a3c7999e230bd3cbf91006d543c6cd6c8ba5c1bcdffcfd2", 1, 15_000},
		{"experiments dram fixed", with(quick, func(sp *Spec) { sp.Bench, sp.DRAM, sp.Report = "mgrid", "fixed", true }),
			"3c59c9f9ca2cd9feefb4b8d9d41b640345b7d26d5f1cb550a925233b07ade1b5", 1, 15_000},
		{"mix on a 4-core machine", Spec{Mix: []string{"gcc", "mcf"}, Machine: &rob},
			"83e126137abe683a475a1e43e87918713edc808a1f8bb7c9ca4ea6946ffca676", 2, 200_000},
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
	// Re-pinned when resolving began to write every name and default.
	m, err := build(t, Spec{Bench: "gcc", Model: "detailed", Prefetch: "stride", Insts: 2_000_000, Warmup: 200_000}).ResolvedMachine()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != "a6c623f48085989eeff9f7da11f2f5ac660550a79477607a42d5ad5fea51d8aa" {
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
