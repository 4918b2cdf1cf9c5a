package simrun

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/workload"
)

func TestSpecScenarioMatchesOptions(t *testing.T) {
	raw := `{
		"bench": "gcc",
		"model": "interval",
		"cores": 2,
		"insts": 5000,
		"warmup": 1000,
		"seed": 7,
		"fabric": "mesh",
		"predictor": "gshare",
		"report": true
	}`
	spec, err := ParseSpec(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	// The same scenario written in Go, installed through New's option.
	fromOpts, err := New("gcc", Spec{Model: "interval", Cores: 2, Insts: 5000, Warmup: 1000, Seed: seedOf(7),
		Fabric: "mesh", Predictor: "gshare", Report: true}.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fromSpec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromOpts.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("spec-built and option-built scenarios differ: %s vs %s", a, b)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec(strings.NewReader(`{"bench":"gcc","predcitor":"tage"}`)); err == nil {
		t.Fatal("misspelled field was accepted")
	}
}

// trailingSpec is one spec followed by a second, misspelled one and junk:
// a decoder that stops after the first value runs gcc and drops the rest.
const trailingSpec = `{"bench":"gcc"}{"bench":"mcf","predcitor":"x"} junk`

// Strict decoding covers the whole input: a second value or junk after the
// spec is rejected, trailing whitespace is not.
func TestParseSpecRejectsTrailingData(t *testing.T) {
	for _, raw := range []string{trailingSpec, `{"bench":"gcc"} junk`, `{"bench":"gcc"} "mcf"`, `{"bench":"gcc"}]`} {
		_, err := ParseSpec(strings.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("ParseSpec(%s): err = %v, want one naming the trailing data", raw, err)
		}
	}
	sp, err := ParseSpec(strings.NewReader("{\"bench\":\"gcc\"}\n\t \n"))
	if err != nil || sp.Bench != "gcc" {
		t.Errorf("trailing whitespace: spec %+v, err %v", sp, err)
	}
}

// A spec file is one value too: a second file concatenated after the
// first fails LoadSpecs and LoadRawSpecs, naming the spec file.
func TestLoadSpecsRejectsTrailingData(t *testing.T) {
	const file = `{"scenarios":[{"bench":"gcc"}]}`
	for name, load := range map[string]func(string) error{
		"LoadSpecs":    func(raw string) error { _, err := LoadSpecs(strings.NewReader(raw)); return err },
		"LoadRawSpecs": func(raw string) error { _, err := LoadRawSpecs(strings.NewReader(raw)); return err },
	} {
		if err := load(file + "\n" + file); err == nil || !strings.Contains(err.Error(), "bad spec file: trailing data") {
			t.Errorf("%s of two files: err = %v, want one naming the spec file's trailing data", name, err)
		}
		if err := load(file + "\n"); err != nil {
			t.Errorf("%s with a trailing newline: %v", name, err)
		}
	}
}

func TestSpecScenarioValidates(t *testing.T) {
	for name, raw := range map[string]string{
		"bench":  `{"bench":"no-such-benchmark"}`,
		"model":  `{"bench":"gcc","model":"quantum"}`,
		"fabric": `{"bench":"gcc","fabric":"torus"}`,
		"cores":  `{"bench":"gcc","cores":-1}`,
	} {
		spec, err := ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := spec.Scenario(); err == nil {
			t.Errorf("%s: invalid spec %s built a scenario", name, raw)
		}
	}
}

func TestLoadSpecsAppliesDefaults(t *testing.T) {
	raw := `{
		"defaults": {"insts": 5000, "warmup": 1000, "fabric": "mesh"},
		"scenarios": [
			{"bench": "gcc"},
			{"bench": "mcf", "fabric": "ring"}
		]
	}`
	scs, err := LoadSpecs(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scs))
	}
	// gcc inherits the mesh default; mcf overrides it with ring.
	m0, err := scs[0].ResolvedMachine()
	if err != nil {
		t.Fatal(err)
	}
	if m0.Mem.Interconnect != "mesh" {
		t.Errorf("scenario 1 fabric = %q, want mesh (default)", m0.Mem.Interconnect)
	}
	m1, err := scs[1].ResolvedMachine()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Mem.Interconnect != "ring" {
		t.Errorf("scenario 2 fabric = %q, want ring (override)", m1.Mem.Interconnect)
	}
}

// Base specs (a front end's sizing flags) back up the file's defaults:
// file fields win, base fills the gaps.
func TestLoadSpecsBaseDefaults(t *testing.T) {
	seed := int64(9)
	base := Spec{Insts: 3000, Warmup: 500, Seed: &seed}
	scs, err := LoadSpecs(strings.NewReader(
		`{"defaults":{"warmup":8000},"scenarios":[{"bench":"gcc"}]}`), base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scs[0].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := build(t, Spec{Bench: "gcc", Insts: 3000, Warmup: 8000, Seed: seedOf(9)}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("base defaults not applied: fingerprint %s, want %s", got, want)
	}
}

// Specs pinned to a stale stream-format generation must fail loudly in
// every wire front end (simd submissions and sweep -f both build through
// Spec.Scenario), while the current version and the omitted-version
// shorthand keep working.
func TestSpecVersionGate(t *testing.T) {
	for _, v := range []int{0, SpecVersion} {
		if _, err := (Spec{Version: v, Bench: "gcc"}).Scenario(); err != nil {
			t.Errorf("version %d rejected: %v", v, err)
		}
	}
	for _, v := range []int{1, 2, SpecVersion + 1} {
		_, err := (Spec{Version: v, Bench: "gcc"}).Scenario()
		if err == nil {
			t.Fatalf("stale spec version %d accepted", v)
		}
		if !strings.Contains(err.Error(), "stream format") {
			t.Errorf("version error does not explain the format break: %v", err)
		}
	}
}

// Mix assigns one address-space slot per core, so a mix wider than the
// slot space must be rejected at build time, not wrap at run time.
func TestMixRejectsMoreCoresThanSlots(t *testing.T) {
	_, err := Spec{Mix: []string{"gcc", "mcf"}, Cores: workload.MaxSlots + 1}.Scenario()
	if err == nil || !strings.Contains(err.Error(), "slot") {
		t.Fatalf("oversized mix not rejected: %v", err)
	}
	if _, err := (Spec{Mix: []string{"gcc", "mcf"}, Cores: workload.MaxSlots}).Scenario(); err != nil {
		t.Fatalf("mix at the slot limit rejected: %v", err)
	}
}

// A stale version in a spec file's defaults poisons every scenario in
// the batch, and the error names the entry. This is the sweep -f
// boundary: the usage error the operator reads must pin which format
// the file carries, which one the build speaks, and that the v3 break
// renumbered the file's expected results.
func TestLoadSpecsStaleVersionRejected(t *testing.T) {
	for _, stale := range []int{1, 2} {
		_, err := LoadSpecs(strings.NewReader(fmt.Sprintf(
			`{"defaults":{"version":%d},"scenarios":[{"bench":"gcc"}]}`, stale)))
		if err == nil {
			t.Fatalf("stale defaults version %d not rejected", stale)
		}
		msg := err.Error()
		for _, want := range []string{
			"scenario 1",
			fmt.Sprintf("pinned to stream format v%d", stale),
			fmt.Sprintf("speaks v%d", SpecVersion),
			"deliberately incompatible",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("v%d rejection missing %q: %v", stale, want, err)
			}
		}
	}
}

func TestLoadSpecsErrors(t *testing.T) {
	if _, err := LoadSpecs(strings.NewReader(`{"scenarios":[]}`)); err == nil {
		t.Error("empty scenario list was accepted")
	}
	_, err := LoadSpecs(strings.NewReader(`{"scenarios":[{"bench":"gcc"},{"bench":"bogus"}]}`))
	if err == nil || !strings.Contains(err.Error(), "scenario 2") {
		t.Errorf("error does not name the offending entry: %v", err)
	}
}

// TestUnrunnableMachineRejected: a machine description no simulator can run
// (here a zero-entry store buffer, on which the detailed core never commits
// its first store and spins to MaxCycles) fails scenario construction with
// the field in the message — as the spec's machine, with a knob applied on
// top, through the wire spec and the batch file cmd/sweep -f loads — while the machine it
// was derived from still resolves to the same fingerprint as before.
func TestUnrunnableMachineRejected(t *testing.T) {
	bad := config.Default(1)
	bad.Core.StoreBufferSize = 0
	const field = "Core.StoreBufferSize"
	rejected := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: err = %v, want one naming %s", path, err, field)
		}
	}

	_, err := Spec{Bench: "gcc", Model: "detailed", Machine: &bad}.Scenario()
	rejected("Machine field", err)
	_, err = Spec{Bench: "gcc", Machine: &bad, Predictor: "tage"}.Scenario()
	rejected("knob on top of the Machine field", err)

	raw, err := json.Marshal(Spec{Bench: "gcc", Model: "detailed", Machine: &bad})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Scenario()
	rejected("Spec.Scenario", err)
	_, err = LoadSpecs(strings.NewReader(`{"scenarios":[`+string(raw)+`]}`), Spec{})
	rejected("LoadSpecs", err)

	good := config.Default(1)
	withMachine, err := Spec{Bench: "gcc", Machine: &good}.Scenario()
	if err != nil {
		t.Fatalf("Table 1 machine rejected: %v", err)
	}
	plain, err := Spec{Bench: "gcc"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	a, err := withMachine.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("explicit Table 1 machine fingerprints as %s, default as %s", a, b)
	}
}

// TestDirectoryCoreLimitRejected: the directory's sharer bitmap is 64 bits
// wide, so a directory machine of more than 64 cores is refused when the
// scenario is built — through a Spec literal, the wire spec and the batch file
// cmd/sweep -f loads — with the field in the message, not accepted and then
// failed by a panic inside the engine. 64 cores, and more cores under a
// snooping protocol, still build.
func TestDirectoryCoreLimitRejected(t *testing.T) {
	const field = "Mem.Coherence"
	rejected := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), "64") {
			t.Errorf("%s: err = %v, want one naming %s and the 64-core limit", path, err, field)
		}
	}
	_, err := Spec{Bench: "gcc", Copies: 65, Coherence: "directory"}.Scenario()
	rejected("Copies+Coherence fields", err)
	_, err = Spec{Bench: "gcc", Cores: 65, Coherence: "directory"}.Scenario()
	rejected("Cores+Coherence fields", err)

	const raw = `{"bench":"gcc","copies":65,"coherence":"directory"}`
	sp, err := ParseSpec(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Scenario()
	rejected("Spec.Scenario", err)
	_, err = LoadSpecs(strings.NewReader(`{"scenarios":[`+raw+`]}`), Spec{})
	rejected("LoadSpecs", err)

	if _, err := (Spec{Bench: "gcc", Copies: 64, Coherence: "directory"}).Scenario(); err != nil {
		t.Errorf("64-core directory machine rejected: %v", err)
	}
	if _, err := (Spec{Bench: "gcc", Copies: 65, Coherence: "mesi"}).Scenario(); err != nil {
		t.Errorf("65-core snooping machine rejected: %v", err)
	}
}

// TestMergeFillsEveryUnsetField: a spec file's defaults fill every field a
// scenario leaves unset, an empty mix included, and never its label; a
// field the scenario sets wins.
func TestMergeFillsEveryUnsetField(t *testing.T) {
	m := config.Default(2)
	def := Spec{
		Version: SpecVersion, Bench: "gcc", Label: "defaults", Model: "detailed", Engine: "full", Cores: 2, Copies: 2,
		Mix: []string{"gcc"}, Insts: 5, Warmup: 6, Seed: seedOf(7), WorkScale: 0.5, MaxCycles: 8, HostPar: 1, Quantum: 2,
		Fabric: "mesh", Coherence: "mesi", DRAM: "banked", Prefetch: "stride", Predictor: "tage", Machine: &m,
		Perfect: &memhier.Perfect{L2: true}, Ablation: &core.Options{NoTaint: true}, Report: true,
	}
	want := def
	want.Label = ""
	if got := (Spec{Mix: []string{}}).merge(def); !reflect.DeepEqual(got, want) {
		t.Errorf("empty spec merged to %+v, want %+v", got, want)
	}
	if got := (Spec{Label: "mine", Insts: 9}).merge(def); got.Label != "mine" || got.Insts != 9 || got.Warmup != 6 {
		t.Errorf("set fields lost: %+v", got)
	}
}
