package simrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
)

// Spec is a scenario's description, and its JSON form: zero values mean
// "use the default" (model "interval", 100 000 instructions per thread,
// seed 42, work scale 1, the Table 1 machine and the baseline knobs). It
// is the wire format shared by the simd service (POST /v1/jobs bodies) and
// cmd/sweep's -f file mode, so a scenario that works in one front end is
// copy-pasteable into the other, and Go programs write the same struct.
//
// Spec covers everything a run is but its host-side attachments: explicit
// instruction streams and observability sinks have no wire form and are
// the Streams and Observe options of New.
type Spec struct {
	// Version pins the stream-format generation the spec was written
	// for. 0 (omitted) means the current generation (SpecVersion); any
	// other value is rejected by Scenario, so clients that recorded
	// expected results under an old stream format fail loudly instead
	// of silently comparing against renumbered simulations.
	Version int `json:"version,omitempty"`

	// Bench names a SPEC or PARSEC profile.
	Bench string `json:"bench,omitempty"`
	// Label overrides the display name (useful with Mix, where the
	// benchmark name alone does not describe the run).
	Label string `json:"label,omitempty"`
	// Model selects the core timing model by its wire name (see
	// multicore.Models): "interval", "detailed" or "oneipc".
	Model string `json:"model,omitempty"`
	// Engine pins the answering engine (see Engines): omitted runs the
	// default, "full", which simulates the complete budget under the core
	// model; "statistical" answers at a cheaper fidelity tier. The choice
	// never enters the fingerprint. Unknown engine names are rejected
	// loudly with the engine set, so a typo never silently runs the wrong
	// fidelity.
	Engine string `json:"engine,omitempty"`
	// Cores sets the simulated core count; PARSEC profiles run one thread
	// per core.
	Cores int `json:"cores,omitempty"`
	// Copies runs n copies of a SPEC profile as a multi-program workload,
	// one per core.
	Copies int `json:"copies,omitempty"`
	// Mix runs a heterogeneous multi-program workload: core i runs SPEC
	// profile Mix[i%len(Mix)] with seed Seed+i in its own address-space
	// slot (workload.NewSlot), so copies never alias cache lines. Without
	// Cores the machine has one core per name.
	Mix []string `json:"mix,omitempty"`

	// Insts is the per-thread measured instruction budget for SPEC-style
	// profiles (PARSEC profiles carry their own total work).
	Insts int `json:"insts,omitempty"`
	// Warmup functionally warms caches, TLBs and branch predictors with
	// this many instructions per core before timed simulation.
	Warmup int `json:"warmup,omitempty"`
	// Seed selects the deterministic workload instance.
	Seed *int64 `json:"seed,omitempty"`
	// WorkScale scales a PARSEC profile's total work; it must leave at
	// least one instruction and fewer than 2^63.
	WorkScale float64 `json:"work_scale,omitempty"`
	// MaxCycles aborts runaway runs (0 = the driver's generous default).
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// HostPar and Quantum selected the host-parallel engine that was
	// removed (docs/architecture.md): accepted for v3 compatibility,
	// ignored. They never entered the fingerprint or changed a result
	// byte; a negative value is still rejected.
	HostPar int   `json:"hostpar,omitempty"`
	Quantum int64 `json:"quantum,omitempty"`

	// The knobs, each a closed name set (Knobs) whose first name is the
	// baseline: the on-chip fabric, the coherence protocol, the DRAM
	// model, the prefetcher (at the machine's degree, config's default
	// unless the machine sets one) and the branch direction predictor.
	Fabric    string `json:"fabric,omitempty"`
	Coherence string `json:"coherence,omitempty"`
	DRAM      string `json:"dram,omitempty"`
	Prefetch  string `json:"prefetch,omitempty"`
	Predictor string `json:"predictor,omitempty"`

	// Machine replaces the Table 1 default as the base machine (its core
	// count is overridden to the scenario's thread count); knob fields
	// above still apply on top of it.
	Machine *config.Machine `json:"machine,omitempty"`
	// Perfect selects always-hit structures (accuracy experiments).
	Perfect *memhier.Perfect `json:"perfect,omitempty"`
	// Ablation selects interval-model ablation variants.
	Ablation *core.Options `json:"ablation,omitempty"`

	// Report keeps the core models and memory hierarchy in the result
	// so the post-run report includes hierarchy, fabric, DRAM and
	// coherence statistics.
	Report bool `json:"report,omitempty"`
}

// Options is the spec as New's option list: one option that installs it,
// replacing any spec installed before. New's bench argument names the
// benchmark; every field is validated inside New.
func (sp Spec) Options() []Option {
	return []Option{func(s *Scenario) error {
		bench := s.spec.Bench
		s.spec, s.spec.Bench = sp, bench
		return nil
	}}
}

// SpecVersion is the wire format's current stream-format generation,
// advanced in lockstep with workload.StreamVersion on every deliberate
// stream break (v2: Mix copies in disjoint address-space slots — all Mix
// results renumbered; v3: counter-based RNG and tabulated geometric
// sampling — all generated streams renumbered). Specs carrying any other
// non-zero Version are rejected.
const SpecVersion = 3

// Scenario builds and validates the scenario the spec describes. A spec
// pinned to a stale stream-format generation is rejected here, which is
// the shared choke point of both wire front ends (simd submissions and
// cmd/sweep -f batch files).
func (sp Spec) Scenario() (*Scenario, error) {
	return New(sp.Bench, sp.Options()...)
}

// ParseSpec strictly decodes one JSON spec: unknown fields are errors, so
// a typo like "predcitor" is rejected instead of silently running the
// baseline, and so is anything but whitespace after the spec.
func ParseSpec(r io.Reader) (Spec, error) {
	var sp Spec
	if err := decodeStrict(r, &sp); err != nil {
		return Spec{}, fmt.Errorf("simrun: bad scenario spec: %w", err)
	}
	return sp, nil
}

// decodeStrict decodes exactly one JSON value from r into v. Unknown
// fields are errors, and so is trailing data: a second value or junk after
// the first would otherwise be dropped without a word, along with any typo
// in it. The reader's own error, a body past its bound say, stays in the
// chain.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return errors.Join(fmt.Errorf("trailing data after the JSON value, which ends at byte %d", end), err)
	}
	return nil
}

// SpecFile is the on-disk batch format (cmd/sweep -f): shared defaults
// plus one spec per scenario. Scenario fields, when set, override the
// defaults field-by-field.
type SpecFile struct {
	Defaults  Spec   `json:"defaults"`
	Scenarios []Spec `json:"scenarios"`
}

// merge returns sp with its unset fields filled in from def: every field
// but Label, which names one scenario, and a zero-length Mix counts as
// unset.
func (sp Spec) merge(def Spec) Spec {
	out, d := reflect.ValueOf(&sp).Elem(), reflect.ValueOf(def)
	for i := range out.NumField() {
		f := out.Field(i)
		if out.Type().Field(i).Name != "Label" && (f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0) {
			f.Set(d.Field(i))
		}
	}
	return sp
}

// loadSpecFile strictly decodes a SpecFile and returns one merged spec
// per scenario entry. Precedence, most specific first: scenario fields,
// the file's defaults, then any base specs (a front end's command-line
// sizing flags, say).
func loadSpecFile(r io.Reader, base ...Spec) ([]Spec, error) {
	var f SpecFile
	if err := decodeStrict(r, &f); err != nil {
		return nil, fmt.Errorf("simrun: bad spec file: %w", err)
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("simrun: spec file has no scenarios")
	}
	def := f.Defaults
	for _, b := range base {
		def = def.merge(b)
	}
	specs := make([]Spec, len(f.Scenarios))
	for i, sp := range f.Scenarios {
		specs[i] = sp.merge(def)
	}
	return specs, nil
}

// LoadSpecs strictly decodes a SpecFile and builds one validated scenario
// per entry. The error names the offending entry.
func LoadSpecs(r io.Reader, base ...Spec) ([]*Scenario, error) {
	specs, err := loadSpecFile(r, base...)
	if err != nil {
		return nil, err
	}
	scs := make([]*Scenario, len(specs))
	for i, sp := range specs {
		s, err := sp.Scenario()
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i+1, err)
		}
		scs[i] = s
	}
	return scs, nil
}

// LoadRawSpecs strictly decodes a SpecFile and returns the merged specs
// in wire form, each validated by building (and discarding) its
// scenario. Front ends that keep specs as their unit of work — cmd/sweep
// runs them locally or ships them to a simd coordinator — need the specs
// themselves: a built Scenario has no way back to its wire form.
func LoadRawSpecs(r io.Reader, base ...Spec) ([]Spec, error) {
	specs, err := loadSpecFile(r, base...)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		if _, err := sp.Scenario(); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i+1, err)
		}
	}
	return specs, nil
}
