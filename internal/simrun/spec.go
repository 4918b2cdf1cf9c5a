package simrun

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
)

// Spec is the declarative, JSON-serializable form of a scenario: every
// field maps onto one scenario option, and zero values mean "use the
// option's default". It is the wire format shared by the simd service
// (POST /v1/jobs bodies) and cmd/sweep's -f file mode, so a scenario that
// works in one front end is copy-pasteable into the other.
//
// Spec deliberately covers only the declarative surface of the builder:
// closed-set knobs, sizing integers and the full machine override.
// Code-only options (Streams, Configure, custom registered factories'
// side data) have no spec form — they exist for embedding Go programs.
type Spec struct {
	// Version pins the stream-format generation the spec was written
	// for. 0 (omitted) means the current generation (SpecVersion); any
	// other value is rejected by Scenario, so clients that recorded
	// expected results under an old stream format fail loudly instead
	// of silently comparing against renumbered simulations.
	Version int `json:"version,omitempty"`

	Bench string `json:"bench,omitempty"`
	Label string `json:"label,omitempty"`
	Model string `json:"model,omitempty"`
	// Engine pins the answering engine (simrun.Engine): omitted or
	// "full" runs the complete budget under the core model; estimator
	// engines ("statistical", "simpoint") answer at a cheaper fidelity
	// tier. Unknown engine or tier names are rejected loudly with the
	// registered set — mirroring the Version rejection below — so a
	// typo never silently runs the wrong fidelity.
	Engine string   `json:"engine,omitempty"`
	Cores  int      `json:"cores,omitempty"`
	Copies int      `json:"copies,omitempty"`
	Mix    []string `json:"mix,omitempty"`

	Insts     int     `json:"insts,omitempty"`
	Warmup    int     `json:"warmup,omitempty"`
	Seed      *int64  `json:"seed,omitempty"`
	WorkScale float64 `json:"work_scale,omitempty"`
	MaxCycles int64   `json:"max_cycles,omitempty"`

	// HostPar and Quantum selected the host-parallel engine that was
	// removed (docs/architecture.md): accepted for v3 compatibility,
	// ignored. They never entered the fingerprint or changed a result
	// byte; a negative value is still rejected.
	HostPar int   `json:"hostpar,omitempty"`
	Quantum int64 `json:"quantum,omitempty"`

	Fabric    string `json:"fabric,omitempty"`
	Coherence string `json:"coherence,omitempty"`
	DRAM      string `json:"dram,omitempty"`
	Prefetch  string `json:"prefetch,omitempty"`
	Predictor string `json:"predictor,omitempty"`

	// Machine replaces the Table 1 default as the base machine; knob
	// fields above still apply on top of it.
	Machine *config.Machine `json:"machine,omitempty"`
	// Perfect selects always-hit structures (accuracy experiments).
	Perfect *memhier.Perfect `json:"perfect,omitempty"`
	// Ablation selects interval-model ablation variants.
	Ablation *core.Options `json:"ablation,omitempty"`

	// Report keeps the core models and memory hierarchy in the result
	// so the post-run report includes hierarchy, fabric, DRAM and
	// coherence statistics (simrun.KeepCores).
	Report bool `json:"report,omitempty"`
}

// Options translates the spec into the equivalent option list, in a fixed
// order. Field validation happens where it always does: inside New.
func (sp Spec) Options() []Option {
	var opts []Option
	if sp.Label != "" {
		opts = append(opts, Label(sp.Label))
	}
	if sp.Model != "" {
		opts = append(opts, Model(sp.Model))
	}
	if sp.Engine != "" {
		opts = append(opts, Engine(sp.Engine))
	}
	if sp.Cores != 0 {
		opts = append(opts, Cores(sp.Cores))
	}
	if sp.Copies != 0 {
		opts = append(opts, Copies(sp.Copies))
	}
	if len(sp.Mix) > 0 {
		opts = append(opts, Mix(sp.Mix...))
	}
	if sp.Insts != 0 {
		opts = append(opts, Insts(sp.Insts))
	}
	if sp.Warmup != 0 {
		opts = append(opts, Warmup(sp.Warmup))
	}
	if sp.Seed != nil {
		opts = append(opts, Seed(*sp.Seed))
	}
	if sp.WorkScale != 0 {
		opts = append(opts, WorkScale(sp.WorkScale))
	}
	if sp.MaxCycles != 0 {
		opts = append(opts, MaxCycles(sp.MaxCycles))
	}
	if sp.HostPar < 0 {
		opts = append(opts, reject("simrun: hostpar must be non-negative, got %d", sp.HostPar))
	}
	if sp.Quantum < 0 {
		opts = append(opts, reject("simrun: epoch quantum must be non-negative, got %d", sp.Quantum))
	}
	if sp.Machine != nil {
		opts = append(opts, Machine(*sp.Machine))
	}
	if sp.Fabric != "" {
		opts = append(opts, Fabric(sp.Fabric))
	}
	if sp.Coherence != "" {
		opts = append(opts, Coherence(sp.Coherence))
	}
	if sp.DRAM != "" {
		opts = append(opts, DRAM(sp.DRAM))
	}
	if sp.Prefetch != "" {
		opts = append(opts, Prefetch(sp.Prefetch))
	}
	if sp.Predictor != "" {
		opts = append(opts, Predictor(sp.Predictor))
	}
	if sp.Perfect != nil {
		opts = append(opts, Perfect(*sp.Perfect))
	}
	if sp.Ablation != nil {
		opts = append(opts, Ablation(*sp.Ablation))
	}
	if sp.Report {
		opts = append(opts, KeepCores())
	}
	return opts
}

// reject is the option that fails New with the given message.
func reject(format string, args ...any) Option {
	return func(*Scenario) error { return fmt.Errorf(format, args...) }
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
	if sp.Version != 0 && sp.Version != SpecVersion {
		return nil, fmt.Errorf("simrun: spec is pinned to stream format v%d, this build speaks v%d: the formats are deliberately incompatible (v3 rebuilt the generator on a counter-based RNG with tabulated sampling, renumbering ALL generated results) — update the spec's version after reviewing its expected results", sp.Version, SpecVersion)
	}
	return New(sp.Bench, sp.Options()...)
}

// ParseSpec strictly decodes one JSON spec: unknown fields are errors, so
// a typo like "predcitor" is rejected instead of silently running the
// baseline.
func ParseSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("simrun: bad scenario spec: %w", err)
	}
	return sp, nil
}

// SpecFile is the on-disk batch format (cmd/sweep -f): shared defaults
// plus one spec per scenario. Scenario fields, when set, override the
// defaults field-by-field.
type SpecFile struct {
	Defaults  Spec   `json:"defaults"`
	Scenarios []Spec `json:"scenarios"`
}

// merge returns sp with unset fields filled in from def.
func (sp Spec) merge(def Spec) Spec {
	out := sp
	if out.Version == 0 {
		out.Version = def.Version
	}
	if out.Bench == "" {
		out.Bench = def.Bench
	}
	if out.Model == "" {
		out.Model = def.Model
	}
	if out.Engine == "" {
		out.Engine = def.Engine
	}
	if out.Cores == 0 {
		out.Cores = def.Cores
	}
	if out.Copies == 0 {
		out.Copies = def.Copies
	}
	if len(out.Mix) == 0 {
		out.Mix = def.Mix
	}
	if out.Insts == 0 {
		out.Insts = def.Insts
	}
	if out.Warmup == 0 {
		out.Warmup = def.Warmup
	}
	if out.Seed == nil {
		out.Seed = def.Seed
	}
	if out.WorkScale == 0 {
		out.WorkScale = def.WorkScale
	}
	if out.MaxCycles == 0 {
		out.MaxCycles = def.MaxCycles
	}
	if out.HostPar == 0 {
		out.HostPar = def.HostPar
	}
	if out.Quantum == 0 {
		out.Quantum = def.Quantum
	}
	if out.Fabric == "" {
		out.Fabric = def.Fabric
	}
	if out.Coherence == "" {
		out.Coherence = def.Coherence
	}
	if out.DRAM == "" {
		out.DRAM = def.DRAM
	}
	if out.Prefetch == "" {
		out.Prefetch = def.Prefetch
	}
	if out.Predictor == "" {
		out.Predictor = def.Predictor
	}
	if out.Machine == nil {
		out.Machine = def.Machine
	}
	if out.Perfect == nil {
		out.Perfect = def.Perfect
	}
	if out.Ablation == nil {
		out.Ablation = def.Ablation
	}
	if !out.Report {
		out.Report = def.Report
	}
	return out
}

// loadSpecFile strictly decodes a SpecFile and returns one merged spec
// per scenario entry. Precedence, most specific first: scenario fields,
// the file's defaults, then any base specs (a front end's command-line
// sizing flags, say).
func loadSpecFile(r io.Reader, base ...Spec) ([]Spec, error) {
	var f SpecFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
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
// scenario. Front ends that ship specs elsewhere instead of running
// them — cmd/sweep -fleet submitting to a simd coordinator — need the
// specs themselves: a built Scenario has no way back to its wire form.
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
