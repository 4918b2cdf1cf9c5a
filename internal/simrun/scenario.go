// Package simrun is the one way to describe and execute simulations: a
// scenario builder with functional options, a core-model registry, and a
// parallel batch runner.
//
// Every driver and example builds runs the same way:
//
//	s, err := simrun.New("gcc",
//		simrun.Cores(4),
//		simrun.Model("interval"),
//		simrun.Fabric("mesh"),
//		simrun.Insts(50_000),
//	)
//	res, err := s.Run(context.Background())
//
// New owns workload resolution (SPEC/PARSEC profiles, multi-program
// copies, per-core mixes), warmup-twin stream construction and
// machine-config knob application, and validates every knob eagerly so
// command-line front ends can reject bad flags with one error check.
// Batch executes a slice of scenarios across a host worker pool with
// context cancellation, per-scenario timeouts and deterministic result
// ordering.
package simrun

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// warmSeedOffset separates the warmup-twin stream's seed from the measured
// stream's: the twin trains the same predictor sites and touches the same
// regions without replaying the exact future line sequence.
const warmSeedOffset = 1000

// Scenario is one fully described simulation run. Build it with New; the
// zero value is not usable.
type Scenario struct {
	bench  string
	label  string
	model  string
	engine string // registered engine name; "" = DefaultEngine

	cores  int
	copies int
	mix    []string

	insts  int
	warmup int
	seed   int64
	scale  float64 // PARSEC TotalWork scale (1 = profile value)

	machine    *config.Machine
	configure  []func(*config.Machine)
	perfect    memhier.Perfect
	ablation   core.Options
	keepCores  bool
	maxCycles  int64
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

// Option configures a Scenario; options are applied in order.
type Option func(*Scenario) error

// New builds a scenario for the named benchmark profile (SPEC or PARSEC).
// bench may be empty only when Streams supplies the instruction streams
// explicitly. All options are validated eagerly: unknown benchmark, model,
// fabric, coherence, DRAM, prefetcher and predictor names are errors here,
// not at run time.
func New(bench string, opts ...Option) (*Scenario, error) {
	// cores stays 0 unless the Cores option is given, so Threads can fall
	// back to an explicit Machine's core count.
	s := &Scenario{
		bench: bench,
		model: "interval",
		insts: 100_000,
		seed:  42,
		scale: 1,
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if _, err := LookupModel(s.model); err != nil {
		return nil, err
	}
	if err := s.resolveWorkload(); err != nil {
		return nil, err
	}
	// Resolve the machine once so option typos surface before any run.
	if _, err := s.ResolvedMachine(); err != nil {
		return nil, err
	}
	// Engine validation runs last: Supports hooks inspect the resolved
	// workload (profile, thread count), so an unsupported pin is
	// rejected with the engine's own explanation, not a run-time error.
	if err := s.validateEngine(); err != nil {
		return nil, err
	}
	return s, nil
}

// validateEngine checks the selected engine against the registry and the
// resolved workload.
func (s *Scenario) validateEngine() error {
	if s.engine == "" {
		return nil
	}
	eng, err := LookupEngine(s.engine)
	if err != nil {
		return err
	}
	if err := eng.Supports(s); err != nil {
		return fmt.Errorf("simrun: engine %q cannot run scenario %q: %w", s.engine, s.Name(), err)
	}
	return nil
}

// MustNew is New for program setup paths where a bad scenario is a bug.
func MustNew(bench string, opts ...Option) *Scenario {
	s, err := New(bench, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// resolveWorkload checks the benchmark name against the profile sets (or
// the explicit stream/mix options) and remembers the resolution.
func (s *Scenario) resolveWorkload() error {
	switch {
	case s.streams != nil:
		return nil
	case len(s.mix) > 0:
		for _, name := range s.mix {
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
	case s.bench == "":
		return fmt.Errorf("simrun: no benchmark name and no explicit streams")
	}
	if p := workload.SPECByName(s.bench); p != nil {
		s.profile = p
		return nil
	}
	if p := workload.PARSECByName(s.bench); p != nil {
		s.profile = p
		return nil
	}
	return fmt.Errorf("simrun: unknown benchmark %q", s.bench)
}

// Threads is the number of simulated cores (= streams) the scenario runs.
func (s *Scenario) Threads() int {
	if s.streams != nil {
		return len(s.streams)
	}
	if s.copies > 0 {
		return s.copies
	}
	if s.cores > 0 {
		return s.cores
	}
	if s.machine != nil {
		return s.machine.Cores
	}
	return 1
}

// Name is the scenario's display label: the Label option when set, the
// benchmark name otherwise.
func (s *Scenario) Name() string {
	if s.label != "" {
		return s.label
	}
	return s.bench
}

// ModelName is the registered core-model name the scenario runs under.
func (s *Scenario) ModelName() string { return s.model }

// EngineName is the registered engine the scenario runs under —
// DefaultEngine ("full") unless the Engine option chose an estimator.
func (s *Scenario) EngineName() string {
	if s.engine == "" {
		return DefaultEngine
	}
	return s.engine
}

// EnginePinned reports whether the Engine option chose an engine
// explicitly. A scenario that pinned "full" runs at full fidelity even
// under serving layers that would otherwise answer cheap-first — pinning
// the default is how a client opts a single query out of tiered serving.
func (s *Scenario) EnginePinned() bool { return s.engine != "" }

// ForEngine returns a copy of the scenario pinned to the named engine.
// The copy shares the scenario's fingerprint — the engine choice is a
// host-side serving decision, never part of the simulated identity — so
// a cheap-tier answer and the full answer land in the same cache slot.
func (s *Scenario) ForEngine(name string) (*Scenario, error) {
	c := *s
	c.engine = name
	if err := c.validateEngine(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Profile returns the resolved single-benchmark workload profile, or nil
// when the scenario runs explicit streams or a heterogeneous mix.
// Estimator engines profile it to build their cheap stand-in workloads.
func (s *Scenario) Profile() *workload.Profile { return s.profile }

// InstBudget is the per-thread measured instruction budget (the Insts
// option).
func (s *Scenario) InstBudget() int { return s.insts }

// WarmupBudget is the per-thread functional-warmup budget (the Warmup
// option).
func (s *Scenario) WarmupBudget() int { return s.warmup }

// SeedValue is the deterministic workload seed (the Seed option).
func (s *Scenario) SeedValue() int64 { return s.seed }

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
		w := float64(s.profile.TotalWork)
		if s.scale > 0 {
			w *= s.scale
		}
		return uint64(w)
	default:
		return uint64(s.insts) * uint64(s.Threads())
	}
}

// ResolvedMachine returns the machine configuration the scenario will
// simulate: the explicit Machine base (or the Table 1 default sized to
// Threads), with every knob option applied in order. A machine no
// simulator can run (config.Machine.Validate) is an error, so New rejects
// it before any worker is committed to it.
func (s *Scenario) ResolvedMachine() (config.Machine, error) {
	var m config.Machine
	if s.machine != nil {
		m = *s.machine
	} else {
		m = config.Default(s.Threads())
	}
	m.Cores = s.Threads()
	for _, f := range s.configure {
		f(&m)
	}
	if err := m.Validate(); err != nil {
		return config.Machine{}, fmt.Errorf("simrun: scenario %q: %w", s.Name(), err)
	}
	return m, nil
}

// The closed knob-value sets. The first entry of each is the baseline;
// the options translate it to the config package's zero value. Knobs
// exposes them to discovery front ends (the simd catalog), so the lists
// served to users are the lists the options validate against.
var knobSets = map[string][]string{
	"fabric":    {"bus", "mesh", "ring"},
	"coherence": {"moesi", "mesi", "directory"},
	"dram":      {"fixed", "banked"},
	"prefetch":  {"none", "nextline", "stride"},
	"predictor": {"local", "gshare", "bimodal", "tournament", "tage", "perfect"},
}

// Knobs returns the closed knob-value sets by knob name (fabric,
// coherence, dram, prefetch, predictor), baseline first, plus the
// dynamic "engine" set (the registered engines, DefaultEngine first).
// The returned slices are copies.
func Knobs() map[string][]string {
	out := make(map[string][]string, len(knobSets)+1)
	for k, v := range knobSets {
		out[k] = append([]string(nil), v...)
	}
	engines := []string{DefaultEngine}
	for _, e := range Engines() {
		if e != DefaultEngine {
			engines = append(engines, e)
		}
	}
	out["engine"] = engines
	return out
}

// oneOf validates a knob value against its closed name set.
func oneOf(kind, knob, v string) error {
	valid := knobSets[knob]
	for _, ok := range valid {
		if v == ok {
			return nil
		}
	}
	return fmt.Errorf("simrun: unknown %s %q (want %s)", kind, v, strings.Join(valid, ", "))
}

// Model selects the core timing model by registered name (see
// RegisterModel); the built-ins are "interval", "detailed" and "oneipc".
func Model(name string) Option {
	return func(s *Scenario) error {
		if _, err := LookupModel(name); err != nil {
			return err
		}
		s.model = name
		return nil
	}
}

// Engine selects the answering engine by registered name (see
// RegisterEngine): DefaultEngine ("full") runs the entire budget under
// the scenario's core model; estimator engines ("statistical" —
// registered by importing internal/engine) answer at a cheaper fidelity
// tier. The choice never enters the scenario fingerprint: every engine
// answers the same scenario, and caches only ever upgrade an entry to a
// higher tier. Unknown names and unsupported scenario/engine combinations
// are rejected by New.
func Engine(name string) Option {
	return func(s *Scenario) error {
		if name == "" {
			return fmt.Errorf("simrun: empty engine name")
		}
		s.engine = name
		return nil
	}
}

// Cores sets the simulated core count; PARSEC profiles run one thread per
// core.
func Cores(n int) Option {
	return func(s *Scenario) error {
		if n <= 0 {
			return fmt.Errorf("simrun: cores must be positive, got %d", n)
		}
		s.cores = n
		return nil
	}
}

// Copies runs n copies of a SPEC profile as a multi-program workload, one
// per core.
func Copies(n int) Option {
	return func(s *Scenario) error {
		if n <= 0 {
			return fmt.Errorf("simrun: copies must be positive, got %d", n)
		}
		s.copies = n
		return nil
	}
}

// Mix runs a heterogeneous multi-program workload: core i runs SPEC
// profile names[i%len(names)] with a per-core seed (seed+i) in its own
// address-space slot (workload.NewSlot, stream format v2, so copies
// never alias cache lines), the way the fabric and NoC studies construct
// bandwidth-hungry mixes. Combine with Cores to set the machine size
// (default: one core per name).
func Mix(names ...string) Option {
	return func(s *Scenario) error {
		if len(names) == 0 {
			return fmt.Errorf("simrun: empty mix")
		}
		s.mix = names
		if s.cores == 0 {
			s.cores = len(names)
		}
		return nil
	}
}

// Insts sets the per-thread measured instruction budget for SPEC-style
// profiles (PARSEC profiles carry their own work budget). Default 100000.
func Insts(n int) Option {
	return func(s *Scenario) error {
		if n <= 0 {
			return fmt.Errorf("simrun: insts must be positive, got %d", n)
		}
		s.insts = n
		return nil
	}
}

// Warmup functionally warms caches, TLBs and branch predictors with n
// instructions per core (via a warmup-twin stream) before timed
// simulation. Default 0: no warming.
func Warmup(n int) Option {
	return func(s *Scenario) error {
		if n < 0 {
			return fmt.Errorf("simrun: warmup must be non-negative, got %d", n)
		}
		s.warmup = n
		return nil
	}
}

// Seed selects the deterministic workload instance. Default 42.
func Seed(seed int64) Option {
	return func(s *Scenario) error { s.seed = seed; return nil }
}

// WorkScale scales a PARSEC profile's total work (1 = profile value), for
// quick looks at multi-threaded benchmarks.
func WorkScale(f float64) Option {
	return func(s *Scenario) error {
		if f <= 0 {
			return fmt.Errorf("simrun: work scale must be positive, got %g", f)
		}
		s.scale = f
		return nil
	}
}

// Fabric selects the on-chip interconnect: "bus" (baseline), "mesh" or
// "ring".
func Fabric(name string) Option {
	return func(s *Scenario) error {
		if err := oneOf("fabric", "fabric", name); err != nil {
			return err
		}
		s.configure = append(s.configure, func(m *config.Machine) { m.Mem.Interconnect = name })
		return nil
	}
}

// Coherence selects the protocol: "moesi" (baseline), "mesi" or
// "directory".
func Coherence(name string) Option {
	return func(s *Scenario) error {
		if err := oneOf("coherence protocol", "coherence", name); err != nil {
			return err
		}
		s.configure = append(s.configure, func(m *config.Machine) { m.Mem.Coherence = name })
		return nil
	}
}

// DRAM selects the main-memory model: "fixed" (baseline) or "banked".
func DRAM(kind string) Option {
	return func(s *Scenario) error {
		if err := oneOf("DRAM model", "dram", kind); err != nil {
			return err
		}
		s.configure = append(s.configure, func(m *config.Machine) {
			if kind == "banked" {
				m.Mem.DRAMKind = "banked"
			} else {
				m.Mem.DRAMKind = ""
			}
		})
		return nil
	}
}

// Prefetch selects the hardware prefetcher: "none" (baseline), "nextline"
// or "stride" (degree 2 unless the machine is configured otherwise).
func Prefetch(name string) Option {
	return func(s *Scenario) error {
		if err := oneOf("prefetcher", "prefetch", name); err != nil {
			return err
		}
		s.configure = append(s.configure, func(m *config.Machine) {
			if name == "none" {
				m.Mem.Prefetch = ""
				return
			}
			m.Mem.Prefetch = name
			if m.Mem.PrefetchDegree == 0 {
				m.Mem.PrefetchDegree = 2
			}
		})
		return nil
	}
}

// Predictor selects the branch direction predictor: "local" (baseline),
// "gshare", "bimodal", "tournament", "tage" or "perfect".
func Predictor(kind string) Option {
	return func(s *Scenario) error {
		if err := oneOf("predictor", "predictor", kind); err != nil {
			return err
		}
		s.configure = append(s.configure, func(m *config.Machine) { m.Branch.Kind = kind })
		return nil
	}
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

// Machine replaces the Table 1 default with m as the base machine (its
// core count is overridden to the scenario's thread count). Knob options
// still apply on top. A sweep over structure sizes is a list of tweaked
// machines: each resolves, and fingerprints, like any other spelling of it.
func Machine(m config.Machine) Option {
	return func(s *Scenario) error { s.machine = &m; return nil }
}

// Perfect selects always-hit structures (the paper's Figure 4 step-by-step
// accuracy experiments).
func Perfect(p memhier.Perfect) Option {
	return func(s *Scenario) error { s.perfect = p; return nil }
}

// Ablation selects interval-model ablation variants (zero value = full
// model); other models ignore it.
func Ablation(o core.Options) Option {
	return func(s *Scenario) error { s.ablation = o; return nil }
}

// KeepCores retains the core model objects and memory hierarchy in the
// result for post-run inspection (CPI stacks, fabric and DRAM statistics).
func KeepCores() Option {
	return func(s *Scenario) error { s.keepCores = true; return nil }
}

// MaxCycles aborts runaway runs (0 = the driver's generous default).
func MaxCycles(n int64) Option {
	return func(s *Scenario) error {
		if n < 0 {
			return fmt.Errorf("simrun: max cycles must be non-negative, got %d", n)
		}
		s.maxCycles = n
		return nil
	}
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

// Label overrides the scenario's display name (useful with Streams or
// Mix, where the benchmark name alone does not describe the run).
func Label(name string) Option {
	return func(s *Scenario) error { s.label = name; return nil }
}
