package simrun

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hostCPUs runs the rest of the test as on a host with n CPUs: the gate
// reads GOMAXPROCS, so this is how a test puts a run on either side of it
// (go test -cpu 1,2,4 runs the package on both).
func hostCPUs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// pipelinedRuns reads the counter an operator reads.
func pipelinedRuns() uint64 {
	obsMetrics()
	return mPipelined.Value()
}

// settled fails the test unless the run gave back everything it took: its
// goroutine (the count is back at base; one that has signalled its exit is
// still counted for the instant it takes to return) and its host threads.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
	if n := hostThreads.Load(); n != 0 {
		t.Fatalf("%d host threads still accounted to runs, none is in flight", n)
	}
}

// TestPipelinedRunChangesNoByte: report.JSON is byte-identical whether the
// run generated its streams on a producer goroutine (two host CPUs, nothing
// else in flight) or inline (one host CPU): one core with the stride
// prefetcher, a four-program mix on a mesh under the directory, four
// threads sharing lines under each protocol, and the detailed model.
func TestPipelinedRunChangesNoByte(t *testing.T) {
	cases := []struct {
		name string
		spec func(sp *Spec)
	}{
		{"gcc + stride prefetch", func(sp *Spec) { sp.Prefetch = "stride" }},
		{"mix on mesh + directory", func(sp *Spec) {
			sp.Bench, sp.Mix, sp.Fabric, sp.Coherence = "", []string{"mcf", "swim", "gcc", "twolf"}, "mesh", "directory"
		}},
		{"canneal × 4 under moesi", func(sp *Spec) { sp.Bench, sp.Cores, sp.WorkScale, sp.Coherence = "canneal", 4, 0.1, "moesi" }},
		{"canneal × 4 under mesi", func(sp *Spec) { sp.Bench, sp.Cores, sp.WorkScale, sp.Coherence = "canneal", 4, 0.1, "mesi" }},
		{"canneal × 4 under directory", func(sp *Spec) { sp.Bench, sp.Cores, sp.WorkScale, sp.Coherence = "canneal", 4, 0.1, "directory" }},
		{"gcc under the detailed model", func(sp *Spec) { sp.Model = "detailed" }},
		{"gcc without warm-up", func(sp *Spec) { sp.Warmup = 0 }},
		{"gcc shorter than a chunk", func(sp *Spec) { sp.Insts, sp.Warmup = 1500, 700 }},
	}
	for _, c := range cases {
		run := func(cpus int) ([]byte, uint64) {
			t.Helper()
			hostCPUs(t, cpus)
			sp := Spec{Bench: "gcc", Insts: 30_000, Warmup: 60_000, Seed: seedOf(7), Report: true}
			c.spec(&sp)
			s := build(t, sp)
			before := pipelinedRuns()
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := report.JSON(res.Result)
			if err != nil {
				t.Fatal(err)
			}
			return raw, pipelinedRuns() - before
		}
		inline, granted := run(1)
		if granted != 0 {
			t.Errorf("%s: a producer on a one-CPU host", c.name)
		}
		piped, granted := run(2)
		if granted != 1 {
			t.Errorf("%s: %d producers granted to a lone run on two CPUs, want 1", c.name, granted)
		}
		if !bytes.Equal(inline, piped) {
			t.Errorf("%s: inline\n%s\npipelined\n%s", c.name, inline, piped)
		}
	}
}

// parkedCtx reports in on the first call of its Done method and then stays
// there until released. The statistical engine asks for Done once it holds
// its host thread, so an estimate run under it stays in flight.
type parkedCtx struct {
	context.Context
	in, out chan struct{}
	once    sync.Once
}

func (p *parkedCtx) Done() <-chan struct{} {
	p.once.Do(func() {
		p.in <- struct{}{}
		<-p.out
	})
	return p.Context.Done()
}

// TestProducerGate pins the policy on a two-CPU host: a run takes a
// producer only while runs in flight plus producers granted stay within
// GOMAXPROCS.
func TestProducerGate(t *testing.T) {
	hostCPUs(t, 2)
	base := runtime.NumGoroutine()
	lone := func() uint64 {
		t.Helper()
		before := pipelinedRuns()
		if _, err := build(t, Spec{Bench: "gcc", Insts: 2000, Warmup: 1000}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return pipelinedRuns() - before
	}

	t.Run("a lone run takes the idle CPU", func(t *testing.T) {
		if got := lone(); got != 1 {
			t.Fatalf("%d producers granted", got)
		}
	})

	// Two workers on two CPUs. The first scenario outlasts the other
	// fifteen, so every one of those starts while its peer is in flight;
	// only a worker that starts before the other has started anything can
	// find a CPU idle.
	t.Run("a saturated batch runs inline", func(t *testing.T) {
		scs := []*Scenario{build(t, Spec{Bench: "gcc", Insts: 3_000_000})}
		for i := 0; i < 15; i++ {
			scs = append(scs, build(t, Spec{Bench: "mcf", Insts: 1000, Warmup: 1000, Seed: seedOf(int64(i))}))
		}
		before := pipelinedRuns()
		for _, r := range Batch(context.Background(), scs, BatchOpts{Workers: 2}) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if got := pipelinedRuns() - before; got > 1 {
			t.Fatalf("%d producers granted to a batch that holds both CPUs", got)
		}
	})

	t.Run("an estimator run in flight counts", func(t *testing.T) {
		ctx := &parkedCtx{Context: context.Background(), in: make(chan struct{}), out: make(chan struct{})}
		parked := build(t, Spec{Bench: "gcc", Insts: 100_000, Warmup: 50_000, Engine: "statistical"})
		done := make(chan error)
		go func() {
			_, err := parked.Run(ctx)
			done <- err
		}()
		<-ctx.in
		if got := lone(); got != 0 {
			t.Errorf("%d producers granted beside an estimator run on the other CPU", got)
		}
		ctx.out <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := lone(); got != 1 {
			t.Errorf("%d producers granted once the estimator run had returned", got)
		}
	})
	settled(t, base)
}

// TestPipelinedRunLeavesNoGoroutine: however a pipelined run ends, its
// producer has returned and its host threads are given back when Run
// returns.
func TestPipelinedRunLeavesNoGoroutine(t *testing.T) {
	hostCPUs(t, 2)
	var cancelMeasure context.CancelFunc
	endings := []struct {
		name  string
		spec  Spec
		opts  []Option
		ctx   func() (context.Context, context.CancelFunc)
		check func(res Result, err error) bool
	}{
		{"normal end", Spec{Insts: 20_000, Warmup: 20_000}, nil, nil,
			func(res Result, err error) bool { return err == nil && res.TotalRetired == 20_000 }},
		{"cancelled during warm-up", Spec{Insts: 20_000, Warmup: 2_000_000_000}, nil,
			func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Millisecond)
			},
			func(res Result, err error) bool {
				return errors.Is(err, context.DeadlineExceeded) && res.Interrupted && res.TotalRetired == 0
			}},
		{"cancelled during measurement", Spec{Insts: 2_000_000_000, Warmup: 20_000},
			// The driver's second poll reports progress; the third sees
			// the cancellation.
			[]Option{Observe(&obs.Observer{ProgressEvery: time.Nanosecond, Progress: func(obs.Progress) { cancelMeasure() }})},
			func() (ctx context.Context, cancel context.CancelFunc) {
				ctx, cancelMeasure = context.WithCancel(context.Background())
				return ctx, cancelMeasure
			},
			func(res Result, err error) bool {
				return errors.Is(err, context.Canceled) && res.Interrupted && res.TotalRetired > 0
			}},
		{"MaxCycles time-out", Spec{Insts: 2_000_000_000, Warmup: 20_000, MaxCycles: 50_000}, nil, nil,
			func(res Result, err error) bool { return err == nil && res.TimedOut }},
		{"engine panic", Spec{Insts: 2_000_000, Warmup: 20_000},
			// The panic fires on the consumer side, mid-measurement,
			// while the producer is running.
			[]Option{Observe(&obs.Observer{ProgressEvery: time.Nanosecond, Progress: func(obs.Progress) { panic("core model bug") }})},
			nil,
			func(res Result, err error) bool {
				var pe *PanicError
				return errors.As(err, &pe) && pe.Value == "core model bug"
			}},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			ctx := context.Background()
			if e.ctx != nil {
				var cancel context.CancelFunc
				ctx, cancel = e.ctx()
				defer cancel()
			}
			base, before := runtime.NumGoroutine(), pipelinedRuns()
			e.spec.Bench = "gcc"
			res, err := build(t, e.spec, e.opts...).Run(ctx)
			if !e.check(res, err) {
				t.Errorf("retired %d, interrupted %v, timed out %v, err %v", res.TotalRetired, res.Interrupted, res.TimedOut, err)
			}
			if pipelinedRuns() != before+1 {
				t.Error("the run was not pipelined")
			}
			settled(t, base)
		})
	}
}

// failingSource panics on its k-th batch.
type failingSource struct {
	trace.Stream
	calls, k int
}

func (f *failingSource) NextBatch(buf []isa.Inst) int {
	if f.calls++; f.calls == f.k {
		panic("generator bug")
	}
	return f.Stream.NextBatch(buf)
}

// runFailing runs s on the full engine's pipelined path, called directly
// behind the panic boundary Run puts around every engine, over a measured
// stream whose source panics on the producer goroutine, 20 chunks in.
func runFailing(s *Scenario) (Result, error) {
	failing := EngineDef{Name: DefaultEngine, run: func(ctx context.Context, s *Scenario) (Result, error) {
		cfg, err := s.runConfig(ctx)
		if err != nil {
			return Result{}, err
		}
		streams, warm := s.buildStreams()
		streams[0] = &failingSource{Stream: streams[0], k: 20}
		return s.runOwned(ctx, cfg, streams, warm)
	}}
	return runIsolated(context.Background(), failing, s)
}

// TestSourcePanicIsIsolated: a panic inside a generator, on the producer
// goroutine, fails its own run with the *PanicError an engine panic gives —
// the generator's value, the producer's stack — and nothing else: the
// producer is gone, the host threads are given back, the runs around it
// finish, and the next run is pipelined again.
func TestSourcePanicIsIsolated(t *testing.T) {
	hostCPUs(t, 2)
	healthy := func() {
		t.Helper()
		res, err := build(t, Spec{Bench: "gcc", Insts: 20_000, Warmup: 20_000}).Run(context.Background())
		if err != nil || res.TotalRetired != 20_000 {
			t.Errorf("healthy run: retired %d, err %v", res.TotalRetired, err)
		}
	}

	base, before := runtime.NumGoroutine(), pipelinedRuns()
	healthy()
	_, err := runFailing(build(t, Spec{Bench: "gcc", Insts: 1_000_000, Warmup: 20_000}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "generator bug" || pe.Engine != DefaultEngine {
		t.Errorf("PanicError{Engine: %q, Value: %v}", pe.Engine, pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("(*failingSource).NextBatch")) || !bytes.Contains(pe.Stack, []byte("multicore.Run")) {
		t.Errorf("the stack should show where the source failed and where the run read it:\n%s", pe.Stack)
	}
	settled(t, base)
	healthy()
	if got := pipelinedRuns() - before; got != 3 {
		t.Errorf("%d of 3 lone runs pipelined", got)
	}
	settled(t, base)
}

// counting counts the instructions read through it.
type counting struct {
	trace.Stream
	read int
}

func (c *counting) NextBatch(buf []isa.Inst) int {
	n := c.Stream.NextBatch(buf)
	c.read += n
	return n
}

// TestWarmupHonoursCancellation: functional warm-up polls the run's context
// once per 4096-instruction chunk. A run that starts cancelled reads at
// most one chunk per core and builds no cores, and a Batch time-out cuts a
// warm-up that would take minutes.
func TestWarmupHonoursCancellation(t *testing.T) {
	gcc := workload.SPECByName("gcc")
	scenario := func(warmup int) (*Scenario, []*counting) {
		var streams, warm []trace.Stream
		var twins []*counting
		for i := 0; i < 2; i++ {
			streams = append(streams, trace.NewLimit(workload.New(gcc, i, 2, 1), 1000))
			twins = append(twins, &counting{Stream: workload.New(gcc, i, 2, 2).Functional()})
			warm = append(warm, twins[i])
		}
		return build(t, Spec{Warmup: warmup}, Streams(streams, warm)), twins
	}

	s, twins := scenario(20_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) || !res.Interrupted || res.TotalRetired != 0 || res.Sim != nil {
		t.Errorf("cancelled run: err %v, interrupted %v, retired %d, cores %v", err, res.Interrupted, res.TotalRetired, res.Sim)
	}
	for i, w := range twins {
		if w.read > 4096 {
			t.Errorf("core %d warmed %d instructions under a cancelled context", i, w.read)
		}
	}

	const minutes = 2_000_000_000
	s, twins = scenario(minutes)
	tctx, tcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer tcancel()
	br := Batch(tctx, []*Scenario{s}, BatchOpts{Workers: 1})[0]
	if !errors.Is(br.Err, context.DeadlineExceeded) || !br.Result.Interrupted {
		t.Errorf("timed-out run: err %v, interrupted %v", br.Err, br.Result.Interrupted)
	}
	if twins[0].read == minutes {
		t.Errorf("warm-up ran to its end (%d instructions) under a 20ms time-out", twins[0].read)
	}

	// Uninterrupted, the poll changes nothing: the whole warm-up is read.
	s, twins = scenario(10_000)
	if res, err := s.Run(context.Background()); err != nil || res.TotalRetired != 2000 {
		t.Fatalf("retired %d, err %v", res.TotalRetired, err)
	}
	for i, w := range twins {
		if w.read != 10_000 {
			t.Errorf("core %d warmed %d of 10000 instructions", i, w.read)
		}
	}
}

// TestEngineSpanSaysWhoGenerated: the engine:full span of a traced run
// says whether the run had a producer and, if it had, how long the
// producer generated and how long the timing model waited for it.
func TestEngineSpanSaysWhoGenerated(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		hostCPUs(t, cpus)
		tr := obs.NewTracer(0)
		s := build(t, Spec{Bench: "gcc", Insts: 200_000, Warmup: 100_000}, Observe(&obs.Observer{Tracer: tr}))
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var args map[string]int64
		for _, sp := range tr.Spans() {
			if sp.Name == "engine:full" {
				args = sp.Args
			}
		}
		_, gen := args["gen_ms"]
		_, wait := args["gen_wait_ms"]
		if want := int64(cpus - 1); args["pipelined"] != want || gen != (want == 1) || wait != (want == 1) {
			t.Errorf("%d CPUs: engine:full args %v", cpus, args)
		}
		if cpus == 2 && args["gen_ms"] < 1 {
			t.Errorf("300k instructions generated in %d ms", args["gen_ms"])
		}
	}
}
