package multicore

import (
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runSingle runs one profile on a single-core machine under the model.
func runSingle(t *testing.T, name string, model Model, n int) Result {
	t.Helper()
	p := workload.SPECByName(name)
	if p == nil {
		t.Fatalf("unknown profile %q", name)
	}
	gen := workload.New(p, 0, 1, 42)
	warm := workload.New(p, 0, 1, 777)
	cfg := RunConfig{
		Machine: config.Default(1), Model: model,
		WarmupInsts: 1_000_000,
		Warmup:      []trace.Stream{warm},
	}
	return Run(cfg, []trace.Stream{trace.NewLimit(gen, n)})
}

// TestModelNames: a model's String is its wire name, the one a spec
// carries, and ParseModel reads back exactly those names.
func TestModelNames(t *testing.T) {
	if got, want := Models(), []string{"detailed", "interval", "oneipc"}; !slices.Equal(got, want) {
		t.Fatalf("Models() = %q, want %q", got, want)
	}
	for _, m := range []Model{Detailed, Interval, OneIPC} {
		if got, ok := ParseModel(m.String()); !ok || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v, true", m.String(), got, ok, m)
		}
	}
	for _, name := range []string{"", "one-ipc", "Interval", "analytic", "model(3)"} {
		if m, ok := ParseModel(name); ok {
			t.Errorf("ParseModel(%q) accepted as %v", name, m)
		}
	}
	Models()[0] = "mutated"
	if Models()[0] != "detailed" {
		t.Error("Models() hands out its backing array")
	}
}

func TestSingleCoreBothModelsPlausible(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "mesa", "swim"} {
		det := runSingle(t, name, Detailed, 50_000)
		intv := runSingle(t, name, Interval, 50_000)
		if det.TimedOut || intv.TimedOut {
			t.Fatalf("%s: timed out det=%v intv=%v", name, det.TimedOut, intv.TimedOut)
		}
		if det.TotalRetired != intv.TotalRetired {
			t.Errorf("%s: retired mismatch detailed=%d interval=%d", name, det.TotalRetired, intv.TotalRetired)
		}
		dIPC, iIPC := det.Cores[0].IPC, intv.Cores[0].IPC
		if dIPC <= 0 || dIPC > 4 {
			t.Errorf("%s: detailed IPC %.3f out of range", name, dIPC)
		}
		if iIPC <= 0 || iIPC > 4 {
			t.Errorf("%s: interval IPC %.3f out of range", name, iIPC)
		}
		err := metrics.RelError(dIPC, iIPC)
		t.Logf("%s: detailed IPC=%.3f interval IPC=%.3f err=%.1f%% wall(det)=%v wall(intv)=%v",
			name, dIPC, iIPC, 100*err, det.Wall, intv.Wall)
		if err > 0.5 {
			t.Errorf("%s: interval error %.1f%% too large", name, 100*err)
		}
	}
}

// TestFullSPECSweep runs every SPEC-like profile on both models and checks
// the error distribution matches the paper's band (5.9% average, 16% max
// for single-threaded workloads). Bounds are slightly relaxed for the
// synthetic substrate.
func TestFullSPECSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	var sum metrics.Summary
	for _, p := range workload.SPEC() {
		det := runSingle(t, p.Name, Detailed, 50_000)
		intv := runSingle(t, p.Name, Interval, 50_000)
		e := metrics.RelError(det.Cores[0].IPC, intv.Cores[0].IPC)
		sum.Add(p.Name, det.Cores[0].IPC, intv.Cores[0].IPC)
		t.Logf("%-10s detailed=%.3f interval=%.3f err=%.1f%%",
			p.Name, det.Cores[0].IPC, intv.Cores[0].IPC, 100*e)
	}
	t.Logf("avg err=%.1f%% max=%.1f%% (%s)", 100*sum.Avg(), 100*sum.Max, sum.MaxName)
	if sum.Avg() > 0.10 {
		t.Errorf("average error %.1f%% exceeds 10%%", 100*sum.Avg())
	}
	if sum.Max > 0.25 {
		t.Errorf("max error %.1f%% (%s) exceeds 25%%", 100*sum.Max, sum.MaxName)
	}
}

// runParsec runs a PARSEC-like profile with one thread per core.
func runParsec(t *testing.T, name string, model Model, cores int) Result {
	t.Helper()
	p := workload.PARSECByName(name)
	if p == nil {
		t.Fatalf("unknown profile %q", name)
	}
	streams := make([]trace.Stream, cores)
	warm := make([]trace.Stream, cores)
	for i := 0; i < cores; i++ {
		streams[i] = workload.New(p, i, cores, 42)
		warm[i] = workload.New(p, i, cores, 777)
	}
	cfg := RunConfig{
		Machine: config.Default(cores), Model: model,
		WarmupInsts: 400_000, Warmup: warm,
		MaxCycles: 100_000_000,
	}
	return Run(cfg, streams)
}

// TestParsecScaling checks multi-threaded runs complete without deadlock
// and that execution time falls with cores for a scaling benchmark while
// the two models agree on the trend.
func TestParsecScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, name := range []string{"blackscholes", "fluidanimate", "vips"} {
		var base [2]int64
		for _, cores := range []int{1, 2, 4} {
			det := runParsec(t, name, Detailed, cores)
			intv := runParsec(t, name, Interval, cores)
			if det.TimedOut || intv.TimedOut {
				t.Fatalf("%s @%d: timeout det=%v intv=%v", name, cores, det.TimedOut, intv.TimedOut)
			}
			if cores == 1 {
				base[0], base[1] = det.Cycles, intv.Cycles
			}
			t.Logf("%-13s %d cores: detailed=%d (%.2fx) interval=%d (%.2fx) err=%.1f%%",
				name, cores, det.Cycles, float64(base[0])/float64(det.Cycles),
				intv.Cycles, float64(base[1])/float64(intv.Cycles),
				100*metrics.RelError(float64(det.Cycles), float64(intv.Cycles)))
		}
	}
}

// TestStacked3DRunCompletes exercises the no-L2 3D-DRAM machine end to end
// under both models (the Figure 8 configuration).
func TestStacked3DRunCompletes(t *testing.T) {
	p := workload.PARSECByName("swaptions")
	q := *p
	q.TotalWork = 60_000
	for _, model := range []Model{Detailed, Interval} {
		streams := make([]trace.Stream, 4)
		for i := range streams {
			streams[i] = workload.New(&q, i, 4, 42)
		}
		res := Run(RunConfig{Machine: config.Stacked3D(4), Model: model,
			MaxCycles: 50_000_000}, streams)
		if res.TimedOut {
			t.Fatalf("%v: timed out", model)
		}
		if res.TotalRetired < 55_000 {
			t.Fatalf("%v: retired only %d", model, res.TotalRetired)
		}
	}
}

// TestInstructionConservation: every model retires exactly the generated
// instruction count on a multi-core run.
func TestInstructionConservation(t *testing.T) {
	p := workload.SPECByName("gzip")
	for _, model := range []Model{Detailed, Interval, OneIPC} {
		streams := make([]trace.Stream, 2)
		for i := range streams {
			streams[i] = trace.NewLimit(workload.New(p, i, 2, 42), 10_000)
		}
		res := Run(RunConfig{Machine: config.Default(2), Model: model}, streams)
		if res.TotalRetired != 20_000 {
			t.Fatalf("%v retired %d, want 20000", model, res.TotalRetired)
		}
		for i, c := range res.Cores {
			if c.Retired != 10_000 {
				t.Fatalf("%v core %d retired %d", model, i, c.Retired)
			}
		}
	}
}

// TestOneIPCSlowerThanDetailedOnCompute: the naive model underestimates
// superscalar performance (its defining error).
func TestOneIPCBaselineCharacter(t *testing.T) {
	p := workload.SPECByName("mesa")
	run := func(model Model) float64 {
		gen := trace.NewLimit(workload.New(p, 0, 1, 42), 20_000)
		warm := workload.New(p, 0, 1, 777)
		res := Run(RunConfig{Machine: config.Default(1), Model: model,
			WarmupInsts: 300_000, Warmup: []trace.Stream{warm}}, []trace.Stream{gen})
		return res.Cores[0].IPC
	}
	det, one := run(Detailed), run(OneIPC)
	if one >= det {
		t.Fatalf("one-IPC (%.2f) not below detailed (%.2f) on a compute benchmark", one, det)
	}
	if one > 1.01 {
		t.Fatalf("one-IPC IPC %.2f exceeds 1", one)
	}
}

// TestBarrierDeadlockFreedom runs every PARSEC profile briefly at 4 cores
// under the interval model and requires completion (no barrier/lock
// deadlock for any profile).
func TestBarrierDeadlockFreedom(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, p := range workload.PARSEC() {
		q := p
		q.TotalWork = 100_000
		streams := make([]trace.Stream, 4)
		for i := range streams {
			streams[i] = workload.New(&q, i, 4, 7)
		}
		res := Run(RunConfig{Machine: config.Default(4), Model: Interval,
			MaxCycles: 200_000_000}, streams)
		if res.TimedOut {
			t.Fatalf("%s deadlocked or ran away", p.Name)
		}
	}
}
