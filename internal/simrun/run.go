package simrun

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario is the scenario that produced this result.
	Scenario *Scenario
	// Engine names the engine that produced the answer and Tier
	// classifies its fidelity (see EngineDef). The full engine answers
	// at the model's own tier; the statistical engine answers lower.
	Engine string
	Tier   Tier
	multicore.Result
	// host is what the run's engine span says about host threads.
	host hostUse
}

// hostUse is the host-thread attribution of one full-engine run: whether
// it had a producer goroutine and, when the run was traced, the host time
// the producer spent generating and the time the timing model waited on it.
type hostUse struct {
	pipelined    bool
	gen, genWait time.Duration
}

// hostThreads is the number of host threads engine runs occupy
// process-wide: one per Scenario.Run in flight — whatever its engine, and
// whoever called it: a Batch worker, a simd worker, a fleet handler — plus
// one per producer granted. It is the whole of the pipelining policy: a
// run gets a producer when that leaves the count within GOMAXPROCS.
var hostThreads atomic.Int64

// takeProducer claims a host thread for a producer goroutine if one is
// idle; the caller gives it back with hostThreads.Add(-1).
func takeProducer() bool {
	if hostThreads.Add(1) > int64(runtime.GOMAXPROCS(0)) {
		hostThreads.Add(-1)
		return false
	}
	return true
}

// buildStreams materializes the measured and warmup instruction streams,
// one per core. Generators are stateful, so this is called once per Run:
// every run starts from fresh, deterministic streams. The warmup twins are
// functional streams (workload.Generator.Functional): functional warmup is
// their only consumer and reads no register operand, so they carry none.
func (s *Scenario) buildStreams() (streams, warm []trace.Stream) {
	n, seed := s.Threads(), s.SeedValue()
	switch {
	case s.streams != nil:
		return s.streams, s.warmStream
	case len(s.mixped) > 0:
		// Heterogeneous mix: each core runs its own single-threaded
		// program instance with a per-core seed, instantiated at its
		// core's address-space slot (stream format v2). Copies of
		// different programs therefore never alias cache lines, so the
		// mix models true multi-programming — no phantom coherence
		// traffic. The warmup twin must live in the same slot as its
		// measured stream or it would warm the wrong lines.
		for i := 0; i < n; i++ {
			p := s.mixped[i%len(s.mixped)]
			streams = append(streams, trace.NewLimit(workload.NewSlot(p, 0, 1, seed+int64(i), i), s.spec.Insts))
			warm = append(warm, workload.NewSlot(p, 0, 1, seed+warmSeedOffset+int64(i), i).Functional())
		}
		return streams, warm
	case s.profile.MultiThreaded():
		p := *s.profile
		if s.spec.WorkScale != 1 {
			p.TotalWork = uint64(float64(p.TotalWork) * s.spec.WorkScale)
		}
		for i := 0; i < n; i++ {
			streams = append(streams, workload.New(&p, i, n, seed))
			warm = append(warm, workload.New(&p, i, n, seed+warmSeedOffset).Functional())
		}
		return streams, warm
	default:
		// SPEC-style: n copies (or threads) under a per-thread budget.
		for i := 0; i < n; i++ {
			streams = append(streams, trace.NewLimit(workload.New(s.profile, i, n, seed), s.spec.Insts))
			warm = append(warm, workload.New(s.profile, i, n, seed+warmSeedOffset).Functional())
		}
		return streams, warm
	}
}

// Run executes the scenario on its selected engine (the full-budget
// simulation unless the spec pins "statistical") and stamps the
// result with the engine name and its fidelity tier. Cancelling ctx
// interrupts the simulation at the next driver poll and returns ctx's
// error alongside the partial result.
//
// Every dispatch is observable: the run's wall clock is recorded per
// engine in obs.Default(), whose count is the run count, and when the
// scenario carries an observer, the whole engine run is bracketed in an
// "engine:<name>" span. Both are per-run costs, never per-cycle. The run
// also counts as one busy host thread while it lasts (hostThreads), which
// is what decides whether a full run starting meanwhile may use a second
// one.
func (s *Scenario) Run(ctx context.Context) (Result, error) {
	eng, err := lookupEngine(s.EngineName())
	if err != nil {
		return Result{Scenario: s}, err
	}
	wall := engineWall(eng.Name)
	sp := s.tracer().Start("engine:" + eng.Name)
	t0 := time.Now()
	hostThreads.Add(1)
	defer hostThreads.Add(-1)
	res, err := runIsolated(ctx, eng, s)
	wall.Observe(time.Since(t0).Seconds())
	if eng.Name == DefaultEngine {
		if h := res.host; h.pipelined {
			sp.Arg("pipelined", 1).Arg("gen_ms", h.gen.Milliseconds()).Arg("gen_wait_ms", h.genWait.Milliseconds())
		} else {
			sp.Arg("pipelined", 0)
		}
	}
	sp.End()
	res.Scenario = s
	res.Engine = eng.Name
	res.Tier = eng.tier(s)
	return res, err
}

// runIsolated is the panic boundary around an engine run: a panic in
// the engine (or the core models underneath it) fails this one run with
// the recovered value and stack in the error, instead of taking down
// the whole process — a batch keeps its other scenarios, a service
// worker keeps serving. (A panic on another goroutine still crashes the
// process; the fleet layer exists to survive exactly that.)
func runIsolated(ctx context.Context, eng EngineDef, s *Scenario) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			obsMetrics()
			mEnginePanics.Inc()
			res = Result{Scenario: s}
			err = newPanicError(eng.Name, s, r)
		}
	}()
	return eng.run(ctx, s)
}

// PanicError is a recovered engine panic, stack included, so the
// failure is debuggable from the one job it sank.
type PanicError struct {
	Engine   string
	Scenario string
	Value    any
	Stack    []byte
}

// newPanicError wraps a recovered value. A panic forwarded from a run's
// producer goroutine is reported as the panic of its source — the value it
// raised, and the producer's stack above the one it was re-raised on — so
// a failing generator reads the same pipelined or inline.
func newPanicError(engine string, s *Scenario, r any) *PanicError {
	stack := debug.Stack()
	if sp, ok := r.(*trace.SourcePanic); ok {
		r, stack = sp.Value, append(sp.Stack, stack...)
	}
	return &PanicError{Engine: engine, Scenario: s.Name(), Value: r, Stack: stack}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simrun: engine %q panicked running %q: %v\n%s", e.Engine, e.Scenario, e.Value, e.Stack)
}

// runFull is the full engine: the scenario's entire instruction budget
// under its own core model — the definitive answer every estimator tier
// is eventually upgraded to.
func (s *Scenario) runFull(ctx context.Context) (Result, error) {
	cfg, err := s.runConfig(ctx)
	if err != nil {
		return Result{Scenario: s}, err
	}
	streams, warm := s.buildStreams()
	if s.streams == nil {
		return s.runOwned(ctx, cfg, streams, warm)
	}
	cfg.Warmup = warm
	return s.finished(ctx, multicore.Run(cfg, streams))
}

// runConfig is the driver configuration of a full run, streams aside.
func (s *Scenario) runConfig(ctx context.Context) (multicore.RunConfig, error) {
	machine, err := s.ResolvedMachine()
	if err != nil {
		return multicore.RunConfig{}, err
	}
	model, _ := multicore.ParseModel(s.spec.Model)
	return multicore.RunConfig{
		Machine:     machine,
		Model:       model,
		Perfect:     *s.spec.Perfect,
		MaxCycles:   s.spec.MaxCycles,
		KeepCores:   s.spec.Report,
		WarmupInsts: s.spec.Warmup,
		Ablation:    *s.spec.Ablation,
		Interrupt:   ctx.Done(),
		Trace:       s.tracer(),
		Heartbeat:   s.heartbeat(),
	}, nil
}

// finished stamps a driver result; an interrupted one carries ctx's error.
func (s *Scenario) finished(ctx context.Context, r multicore.Result) (Result, error) {
	res := Result{Scenario: s, Result: r}
	if r.Interrupted {
		return res, ctx.Err()
	}
	return res, nil
}

// runOwned runs the sequential driver over streams nobody but this run
// reads — the generators buildStreams made for it — which is what lets
// them move to a producer goroutine when a host thread is idle. Explicit
// Streams never come here (their owner may read on after the run and would
// lose the read-ahead). Without a producer the cores call the generators
// inline. Bytes cannot differ between the two: the generators take no
// feedback from timing, and every core reads the same instructions in the
// same order.
func (s *Scenario) runOwned(ctx context.Context, cfg multicore.RunConfig, streams, warm []trace.Stream) (res Result, err error) {
	if takeProducer() {
		obsMetrics()
		mPipelined.Inc()
		// The warm-up twins come first, so the producer serves warm-up and
		// fills the measured rings behind it, and they are cut to the
		// warm-up length so it generates nothing the run would not have.
		var srcs []trace.Stream
		if s.spec.Warmup > 0 {
			for _, w := range warm {
				srcs = append(srcs, trace.NewLimit(w, s.spec.Warmup))
			}
		}
		nw := len(srcs)
		pipe, out := trace.StartPipeline(append(srcs, streams...), cfg.Trace != nil)
		// On every path out, a panic included, the producer has returned
		// before the run does.
		defer func() {
			pipe.Close()
			hostThreads.Add(-1)
			res.host.pipelined = true
			res.host.gen, res.host.genWait = pipe.Stats()
		}()
		copy(warm, out[:nw])
		copy(streams, out[nw:])
	}
	cfg.Warmup = warm
	return s.finished(ctx, multicore.Run(cfg, streams))
}

// heartbeat builds the driver's live-progress sink from the attached
// observer: nil (free) when no observer or no progress callback is
// attached. The tier reported is the full engine's — runFull is the
// definitive simulation; the statistical engine answers too fast for
// progress to matter.
func (s *Scenario) heartbeat() *obs.Heartbeat {
	o := s.obsv
	if o == nil || o.Progress == nil {
		return nil
	}
	return &obs.Heartbeat{
		Emit:   o.Progress,
		Every:  o.ProgressEvery,
		Label:  s.Name(),
		Tier:   string(fullTier(s)),
		Budget: s.TotalInstBudget(),
	}
}
