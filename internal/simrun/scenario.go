// Package simrun is the one way to describe and execute simulations: a
// scenario is a Spec, run on one of two engines by a parallel batch runner.
//
// Every driver and example describes a run the same way:
//
//	s, err := simrun.Spec{
//		Bench:  "gcc",
//		Cores:  4,
//		Model:  "interval",
//		Fabric: "mesh",
//		Insts:  50_000,
//	}.Scenario()
//	res, err := s.Run(context.Background())
//
// Building a scenario owns workload resolution (SPEC/PARSEC profiles,
// multi-program copies, per-core mixes), warmup-twin stream construction and
// machine-config knob application, and validates every field eagerly so
// command-line front ends can reject bad flags with one error check.
// Batch executes a slice of scenarios across a host worker pool with
// context cancellation and deadlines and deterministic result ordering.
package simrun

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// warmSeedOffset separates the warmup-twin stream's seed from the measured
// stream's: the twin trains the same predictor sites and touches the same
// regions without replaying the exact future line sequence.
const warmSeedOffset = 1000

// Scenario is one fully described simulation run: a validated Spec plus
// what has no wire form. Build it with Spec.Scenario or New; the zero value
// is not usable.
type Scenario struct {
	// spec is the run's description with the defaults filled in (model
	// "interval", 100 000 instructions, seed 42, work scale 1) and its
	// pointers and slices copied, so the caller's spec can change freely.
	spec Spec

	// streams and warmStream are explicit instruction streams (recorded
	// traces, statistical clones) that replace benchmark resolution.
	streams    []trace.Stream
	warmStream []trace.Stream

	// obsv holds the attached observability sinks (span tracer,
	// progress callback). It is a host-side concern: deliberately
	// absent from the fingerprint and carried along by ForEngine's
	// copy so tiered serving traces the whole lifecycle of one job
	// through one tracer.
	obsv *obs.Observer

	// Resolved at New time.
	profile *workload.Profile // nil when streams or mix are explicit
	mixped  []*workload.Profile
}

// Option configures a Scenario at New time: Spec.Options installs a spec,
// Observe and Streams attach what a spec cannot carry.
type Option func(*Scenario) error

// New builds a scenario for the named benchmark profile (SPEC or PARSEC).
// bench may be empty only when Streams supplies the instruction streams
// explicitly. The spec is validated eagerly: unknown benchmark, model,
// engine, fabric, coherence, DRAM, prefetcher and predictor names are
// errors here, not at run time.
func New(bench string, opts ...Option) (*Scenario, error) {
	s := &Scenario{spec: Spec{Bench: bench}}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate fills in the spec's defaults and checks every field, then the
// workload, the machine, the instruction budget and the engine, in that
// order.
func (s *Scenario) validate() error {
	sp := &s.spec
	if sp.Version != 0 && sp.Version != SpecVersion {
		return fmt.Errorf("simrun: spec is pinned to stream format v%d, this build speaks v%d: the formats are deliberately incompatible (v3 rebuilt the generator on a counter-based RNG with tabulated sampling, renumbering ALL generated results) — update the spec's version after reviewing its expected results", sp.Version, SpecVersion)
	}
	sp.Model = cmp.Or(sp.Model, "interval")
	sp.Insts = cmp.Or(sp.Insts, 100_000)
	sp.WorkScale = cmp.Or(sp.WorkScale, 1)
	sp.Seed = copyOr(sp.Seed, 42)
	sp.Perfect = copyOr(sp.Perfect, memhier.Perfect{})
	sp.Ablation = copyOr(sp.Ablation, core.Options{})
	if sp.Machine != nil {
		sp.Machine = copyOr(sp.Machine, config.Machine{})
	}
	// An empty mix is an absent one, in the fingerprint as in JSON.
	sp.Mix = slices.Clone(sp.Mix)
	if len(sp.Mix) == 0 {
		sp.Mix = nil
	}

	if _, ok := multicore.ParseModel(sp.Model); !ok {
		return fmt.Errorf("simrun: unknown model %q (registered: %s)", sp.Model, strings.Join(multicore.Models(), ", "))
	}
	for _, c := range []struct {
		bad    bool
		format string
		value  any
	}{
		{sp.Cores < 0, "cores must be positive, got %d", sp.Cores},
		{sp.Copies < 0, "copies must be positive, got %d", sp.Copies},
		{sp.Insts < 0, "insts must be positive, got %d", sp.Insts},
		{sp.Warmup < 0, "warmup must be non-negative, got %d", sp.Warmup},
		{!(sp.WorkScale > 0), "work scale must be positive, got %g", sp.WorkScale},
		{sp.MaxCycles < 0, "max cycles must be non-negative, got %d", sp.MaxCycles},
		{sp.HostPar < 0, "hostpar must be non-negative, got %d", sp.HostPar},
		{sp.Quantum < 0, "epoch quantum must be non-negative, got %d", sp.Quantum},
	} {
		if c.bad {
			return fmt.Errorf("simrun: "+c.format, c.value)
		}
	}
	for _, k := range []struct{ kind, knob, v string }{
		{"fabric", "fabric", sp.Fabric},
		{"coherence protocol", "coherence", sp.Coherence},
		{"DRAM model", "dram", sp.DRAM},
		{"prefetcher", "prefetch", sp.Prefetch},
		{"predictor", "predictor", sp.Predictor},
	} {
		if k.v == "" {
			continue
		}
		if names := knobSet(k.knob); !slices.Contains(names, k.v) {
			return fmt.Errorf("simrun: unknown %s %q (want %s)", k.kind, k.v, strings.Join(names, ", "))
		}
	}
	if err := s.resolveWorkload(); err != nil {
		return err
	}
	// Resolve the machine once so knob typos surface before any run.
	if _, err := s.ResolvedMachine(); err != nil {
		return err
	}
	if err := s.checkBudget(); err != nil {
		return err
	}
	// Engine validation runs last: the engine's supports check inspects
	// the resolved workload (profile, thread count), so an unsupported pin
	// is rejected with the engine's own explanation, not a run-time error.
	return s.validateEngine()
}

// copyOr returns a pointer to a copy of *p, or to def when p is nil.
func copyOr[T any](p *T, def T) *T {
	if p != nil {
		def = *p
	}
	return &def
}

// checkBudget rejects a run that could not end on its instruction budget:
// the total must be at least one instruction and fit an int64. A PARSEC
// profile whose work scales to zero would be read by the generator as "no
// budget" and run until its deadline, and a total past 2^63 wraps.
func (s *Scenario) checkBudget() error {
	sp := &s.spec
	switch {
	case s.streams != nil:
	case s.profile != nil && s.profile.MultiThreaded():
		if w := float64(s.profile.TotalWork) * sp.WorkScale; !(w >= 1 && w < 1<<63) {
			return fmt.Errorf("simrun: work scale %g leaves %s %.4g instructions of total work (want at least 1 and fewer than 2^63)", sp.WorkScale, s.profile.Name, w)
		}
	case uint64(sp.Insts) > math.MaxInt64/uint64(s.Threads()):
		return fmt.Errorf("simrun: insts %d on %d cores is past 2^63 instructions", sp.Insts, s.Threads())
	}
	return nil
}

// validateEngine checks the selected engine against the engine set and the
// resolved workload.
func (s *Scenario) validateEngine() error {
	if s.spec.Engine == "" {
		return nil
	}
	eng, err := lookupEngine(s.spec.Engine)
	if err != nil {
		return err
	}
	if err := eng.supports(s); err != nil {
		return fmt.Errorf("simrun: engine %q cannot run scenario %q: %w", s.spec.Engine, s.Name(), err)
	}
	return nil
}

// resolveWorkload checks the benchmark name against the profile sets (or
// the explicit streams or mix) and remembers the resolution.
func (s *Scenario) resolveWorkload() error {
	switch {
	case s.streams != nil:
		return nil
	case len(s.spec.Mix) > 0:
		for _, name := range s.spec.Mix {
			p := workload.SPECByName(name)
			if p == nil {
				return fmt.Errorf("simrun: unknown SPEC profile %q in mix", name)
			}
			s.mixped = append(s.mixped, p)
		}
		// Each mix copy needs its own address-space slot; beyond
		// MaxSlots the slots would silently alias.
		if n := s.Threads(); n > workload.MaxSlots {
			return fmt.Errorf("simrun: mix runs one address-space slot per core and supports at most %d cores, got %d", workload.MaxSlots, n)
		}
		return nil
	case s.spec.Bench == "":
		return fmt.Errorf("simrun: no benchmark name and no explicit streams")
	}
	if p := workload.SPECByName(s.spec.Bench); p != nil {
		s.profile = p
		return nil
	}
	if p := workload.PARSECByName(s.spec.Bench); p != nil {
		s.profile = p
		return nil
	}
	return fmt.Errorf("simrun: unknown benchmark %q", s.spec.Bench)
}

// Threads is the number of simulated cores (= streams) the scenario runs:
// the explicit streams, else the first of Copies, Cores, one per Mix
// entry and the Machine's core count that is set, else 1.
func (s *Scenario) Threads() int {
	switch sp := &s.spec; {
	case s.streams != nil:
		return len(s.streams)
	case sp.Copies > 0:
		return sp.Copies
	case sp.Cores > 0:
		return sp.Cores
	case len(sp.Mix) > 0:
		return len(sp.Mix)
	case sp.Machine != nil:
		return sp.Machine.Cores
	}
	return 1
}

// Name is the scenario's display label: the spec's Label when set, the
// benchmark name otherwise.
func (s *Scenario) Name() string { return cmp.Or(s.spec.Label, s.spec.Bench) }

// model is the core model the scenario runs under (validate has checked
// its name).
func (s *Scenario) model() multicore.Model {
	m, _ := multicore.ParseModel(s.spec.Model)
	return m
}

// EngineName is the engine the scenario runs under — DefaultEngine
// ("full") unless the spec pins "statistical".
func (s *Scenario) EngineName() string { return cmp.Or(s.spec.Engine, DefaultEngine) }

// EnginePinned reports whether the spec names an engine explicitly. A
// scenario that pinned "full" runs at full fidelity even under serving
// layers that would otherwise answer cheap-first — pinning the default is
// how a client opts a single query out of tiered serving.
func (s *Scenario) EnginePinned() bool { return s.spec.Engine != "" }

// ForEngine returns a copy of the scenario pinned to the named engine.
// The copy shares the scenario's fingerprint — the engine choice is a
// host-side serving decision, never part of the simulated identity — so
// a cheap-tier answer and the full answer land in the same cache slot.
func (s *Scenario) ForEngine(name string) (*Scenario, error) {
	c := *s
	c.spec.Engine = name
	if err := c.validateEngine(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Profile returns the resolved single-benchmark workload profile, or nil
// when the scenario runs explicit streams or a heterogeneous mix.
// The statistical engine profiles it to build its cheap stand-in workload.
func (s *Scenario) Profile() *workload.Profile { return s.profile }

// SeedValue is the deterministic workload seed (Spec.Seed).
func (s *Scenario) SeedValue() int64 { return *s.spec.Seed }

// Observer returns the attached observability sinks (nil = none).
func (s *Scenario) Observer() *obs.Observer { return s.obsv }

// SetObserver attaches observability sinks after construction — the
// path for serving layers that build scenarios from wire specs and
// then instrument them per job. Equivalent to the Observe option.
func (s *Scenario) SetObserver(o *obs.Observer) { s.obsv = o }

// tracer is the attached span tracer; nil (and therefore free) when no
// observer is attached.
func (s *Scenario) tracer() *obs.Tracer { return s.obsv.ObsTracer() }

// TotalInstBudget is the scenario's total instruction budget summed
// across cores, when known: the denominator live-progress reports use
// for completion ratio and ETA. Zero for explicit streams (their
// length is unknowable up front).
func (s *Scenario) TotalInstBudget() uint64 {
	switch {
	case s.streams != nil:
		return 0
	case s.profile != nil && s.profile.MultiThreaded():
		return uint64(float64(s.profile.TotalWork) * s.spec.WorkScale)
	default:
		return uint64(s.spec.Insts) * uint64(s.Threads())
	}
}

// ResolvedMachine returns the machine configuration the scenario will
// simulate: the spec's Machine (or the Table 1 default) sized to Threads,
// with the knob fields assigned on top and resolved
// (config.Machine.Resolve). One rule is the knobs' own: a prefetcher knob
// on a machine without a degree gets degree 2. A machine no simulator can
// run is an error, so New rejects it before any worker is committed to it.
func (s *Scenario) ResolvedMachine() (config.Machine, error) {
	sp := &s.spec
	m := config.Default(s.Threads())
	if sp.Machine != nil {
		m = *sp.Machine
	}
	m.Cores = s.Threads()
	m.Mem.Interconnect = cmp.Or(sp.Fabric, m.Mem.Interconnect)
	m.Mem.Coherence = cmp.Or(sp.Coherence, m.Mem.Coherence)
	m.Mem.DRAMKind = cmp.Or(sp.DRAM, m.Mem.DRAMKind)
	m.Mem.Prefetch = cmp.Or(sp.Prefetch, m.Mem.Prefetch)
	m.Branch.Kind = cmp.Or(sp.Predictor, m.Branch.Kind)
	if sp.Prefetch != "" && sp.Prefetch != knobSet("prefetch")[0] && m.Mem.PrefetchDegree == 0 {
		m.Mem.PrefetchDegree = 2
	}
	m, err := m.Resolve()
	if err != nil {
		return config.Machine{}, fmt.Errorf("simrun: scenario %q: %w", s.Name(), err)
	}
	return m, nil
}

// knobFields names the config.Machine field each knob sets. The knob
// accepts that field's names (config.Names), baseline first; Knobs serves
// them to discovery front ends (the simd catalog), so the lists served to
// users are the lists specs are validated against.
var knobFields = map[string]string{
	"fabric":    "Mem.Interconnect",
	"coherence": "Mem.Coherence",
	"dram":      "Mem.DRAMKind",
	"prefetch":  "Mem.Prefetch",
	"predictor": "Branch.Kind",
}

// knobSet returns the names the knob accepts, baseline first.
func knobSet(knob string) []string { return config.Names(knobFields[knob]) }

// Knobs returns the closed knob-value sets by knob name (fabric,
// coherence, dram, prefetch, predictor), baseline first, plus the
// "engine" set (Engines, DefaultEngine first). The returned slices are
// copies.
func Knobs() map[string][]string {
	out := make(map[string][]string, len(knobFields)+1)
	for k := range knobFields {
		out[k] = knobSet(k)
	}
	out["engine"] = Engines()
	return out
}

// Observe attaches observability sinks — a span tracer for lifecycle
// and engine spans, and a throttled progress callback — to the
// scenario. Observability is strictly host-side: it never enters the
// scenario fingerprint, never alters simulated results or report
// payloads, and a scenario without an observer pays nothing (every
// hook is a nil-check no-op).
func Observe(o *obs.Observer) Option {
	return func(s *Scenario) error { s.obsv = o; return nil }
}

// Streams supplies the instruction streams explicitly (recorded traces,
// slice streams, statistical clones), bypassing benchmark resolution; warm
// optionally supplies separate warmup streams. Streams are stateful, so a
// scenario built this way can only run once.
func Streams(streams, warm []trace.Stream) Option {
	return func(s *Scenario) error {
		if len(streams) == 0 {
			return fmt.Errorf("simrun: empty stream set")
		}
		s.streams = streams
		s.warmStream = warm
		return nil
	}
}
