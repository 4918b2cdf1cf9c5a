// Command benchmark is the repository's measurement harness: five named
// workloads, each one process invocation, that time the paths users take
// (Scenario.Run, a sweep batch, simd submit→answer, fleet dispatch) from
// outside, through the public functions of the internal packages.
//
//	go run ./benchmark -workload spec-interval -seed 1
//	go run ./benchmark -workload service-mix -seed 1 -traced out.json
//	go run ./benchmark -selfcheck
//
// A run sets the workload up (repeatedly, reporting the median), runs
// measured passes with a fixed calibration kernel interleaved, checks that
// every payload repeats byte for byte, and prints a table followed by one
// JSON result line. With -trace 0 the line carries the end-to-end metrics;
// with -trace 1 (or -traced) the workload is repeated under a benchmark-owned
// tracer and the line carries the per-layer metrics instead. BENCHMARK.json
// at the repository root declares the names; README.md explains them.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	// Registers the statistical and simpoint engines tiered serving
	// answers from.
	_ "repro/internal/engine"
	"repro/internal/obs"
)

// Exit codes.
const (
	exitOK      = 0
	exitFailed  = 1 // a correctness check failed
	exitUsage   = 2
	exitNoisy   = 3 // the calibration kernel says the host was too noisy to trust
	defaultSeed = 1
)

// Set-up is repeated until setupReps repetitions or setupSpend seconds,
// whichever comes first: a short set-up needs the median of several to be
// steady, a long one already averages the host's noise over its length.
const (
	setupReps  = 3
	setupSpend = 2.0
)

// nominalCalibNS is the calibration kernel's ns per operation on the nominal
// host. Every time the benchmark reports is scaled by nominal/measured, the
// measured value being the kernel's samples on either side of the timed
// section: a host that runs everything 10% slower this minute then reports
// what it would have reported last minute. 8 ns is the reference sandbox's
// typical value, so calibrated and raw seconds are close there.
const nominalCalibNS = 8.0

// minPasses is the fewest measured passes a run makes however small its
// -seconds budget.
const minPasses = 3

// noisyPct is the calibration spread (interquartile range over median,
// across the passes of one run) above which medians are not reported as
// trustworthy.
const noisyPct = 10.0

//go:embed golden.json
var goldenJSON []byte

const goldenPath = "benchmark/golden.json"

type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	traceOut     string
	smoke        bool
	strict       bool
	updateGolden bool
}

// pass is one measured pass of a workload.
type pass struct {
	wall float64 // seconds
	// scale turns the pass's host times into calibrated ones: see
	// run.calibrated.
	scale float64
	// ops counts the operations attempted and failed those that errored,
	// were refused or broke a check inside the pass (a served payload
	// differing from the direct run's, say).
	ops, failed int
	// payloads holds result payloads in a fixed order; every pass must
	// reproduce the first pass's bytes. An operation that failed leaves
	// its payload nil.
	payloads [][]byte
	// mips is one simulation-speed sample per scenario; sim_mips is the
	// geomean over scenarios of the per-scenario medians over passes.
	mips []float64
	// insts is the number of measured instructions the pass simulated.
	insts uint64
	// lat holds latency samples by phase (service-mix only).
	lat map[string][]float64
}

// bench is one workload. setUp may be called repeatedly; it discards the
// state of the previous call.
type bench interface {
	// setUp builds the inputs from the seed, computes the references the
	// correctness and accuracy checks compare against and runs a reduced
	// warm-up pass, so lazy initialisation is over before timing starts.
	setUp() error
	// passes is the frozen pass count of the reference sizing.
	passes() int
	// pass runs one measured pass; tr is nil when tracing is off.
	pass(tr *obs.Tracer) pass
	// report adds the workload's own metrics, computed from the untraced
	// passes.
	report(r *run, ps []pass)
	// layers takes the traced-only per-layer measurements and prints the
	// layer budget.
	layers(r *run)
	close()
}

// run is the state of one benchmark invocation.
type run struct {
	cfg       config
	out       io.Writer
	tr        *obs.Tracer
	metrics   map[string]float64
	attempted int
	failed    int
	calib     []float64
	notes     []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// calibrate takes one calibration sample.
func (r *run) calibrate() {
	ops := calibOps
	if r.cfg.smoke {
		ops = smokeCalibOps
	}
	r.calib = append(r.calib, calibrate(ops))
}

// calibrated is the factor that turns a host time measured between the last
// two calibration samples into calibrated time: what it would have been on
// a host whose kernel runs at nominalCalibNS.
func (r *run) calibrated() float64 {
	n := len(r.calib)
	return nominalCalibNS / ((r.calib[n-2] + r.calib[n-1]) / 2)
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var selfcheck bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: scenario i runs under simrun.Seed(seed+i)")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measurement budget in seconds; 0 runs the frozen pass count however long it takes")
	fs.IntVar(&trace, "trace", 0, "1 repeats the workload under a tracer and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "traced", "", "write the Chrome trace here (implies -trace 1; default .bench_build/trace-<workload>.json)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for tests")
	fs.BoolVar(&cfg.strict, "strict", false, "exit 3 when the calibration kernel's spread across the run exceeds 10%")
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "pin this run's payload digest in "+goldenPath+" (default seed only)")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and fail unless each end-to-end metric agrees within its bound")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}
	if selfcheck {
		return selfCheck(cfg.seed, cfg.seconds, stdout, stderr)
	}
	cfg.trace = trace != 0 || cfg.traceOut != ""
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}
	r, code, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return code
	}
	line, err := json.Marshal(r.result(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(cfg config) (bench, error) {
	sz := fullSize
	if cfg.smoke {
		sz = smokeSize
	}
	switch cfg.workload {
	case "spec-interval":
		return newSpecBench("interval", cfg.seed, sz), nil
	case "spec-detailed":
		return newSpecBench("detailed", cfg.seed, sz), nil
	case "multicore-shared":
		return newMulticoreBench(cfg.seed, sz), nil
	case "sweep-batch":
		return newSweepBench(cfg.seed, sz), nil
	case "service-mix":
		return newServiceBench(cfg.seed, sz), nil
	}
	names := ""
	for _, w := range workloads {
		names += " " + w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have:%s)", cfg.workload, names)
}

// runWorkload runs one workload, prints its tables to out and returns the
// run and its exit code. An error means no result could be produced at all.
func runWorkload(cfg config, out io.Writer) (*run, int, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, exitUsage, err
	}
	defer b.close()
	r := &run{cfg: cfg, out: out, metrics: map[string]float64{}}
	r.printf("benchmark: workload %s seed %d (go %s, %d cpu)\n", cfg.workload, cfg.seed, runtime.Version(), runtime.NumCPU())

	var setups []float64
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var spent float64
	r.calibrate()
	for len(setups) < reps && (len(setups) == 0 || spent < setupSpend) {
		t0 := time.Now()
		if err := b.setUp(); err != nil {
			return nil, exitFailed, fmt.Errorf("set-up: %w", err)
		}
		d := seconds(time.Since(t0))
		spent += d
		r.calibrate()
		setups = append(setups, d*r.calibrated())
	}
	r.set("setup_s", median(setups))

	// With tracing on, untraced and traced passes alternate within the
	// budget, so that host drift falls on both alike: the untraced ones
	// give the workload's own metrics and the baseline of
	// obs.traced_overhead_pct.
	if cfg.trace {
		r.tr = obs.NewTracer(1 << 16)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps, tps := r.measure(b, cfg.seconds)
	runtime.ReadMemStats(&after)
	digest := r.check(ps)

	walls := make([]float64, len(ps))
	rates := make([]float64, len(ps))
	var perScenario [][]float64
	var insts uint64
	raw := make([]float64, len(ps))
	for i, p := range ps {
		k := p.scale
		raw[i] = p.wall
		walls[i] = p.wall * k
		rates[i] = float64(p.ops) / walls[i]
		insts += p.insts
		for j, m := range p.mips {
			if j == len(perScenario) {
				perScenario = append(perScenario, nil)
			}
			if m > 0 {
				perScenario[j] = append(perScenario[j], m/k)
			}
		}
	}
	var mips []float64
	for _, xs := range perScenario {
		if len(xs) > 0 {
			mips = append(mips, median(xs))
		}
	}
	r.set("pass_wall_s", median(walls))
	r.set("scenarios_per_s", median(rates))
	r.set("sim_mips", geomean(mips))
	if insts > 0 {
		r.set("host.allocs_per_kinst", float64(after.Mallocs-before.Mallocs)/(float64(insts)/1000))
	}
	r.set("host.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	b.report(r, ps)

	if cfg.trace {
		r.check(tps)
		twalls := make([]float64, len(tps))
		for i, p := range tps {
			twalls[i] = p.wall
		}
		r.set("obs.traced_overhead_pct", 100*(median(twalls)-median(raw))/median(raw))
		r.printf("raw traced pass walls s: %.4f\n", twalls)
		r.set("obs.disabled_span_ns", disabledSpanNS())
		b.layers(r)
		if err := writeChrome(cfg.traceOut, r.tr); err != nil {
			return nil, exitFailed, err
		}
		r.printf("chrome trace: %s (%d spans, %d dropped)\n", cfg.traceOut, len(r.tr.Spans()), r.tr.Dropped())
	}
	r.set("host.calib_ns_per_op", median(r.calib))
	r.set("host.calib_spread_pct", spreadPct(r.calib))
	// Last, so that it covers everything the run did.
	r.set("host.peak_rss_mb", peakRSSMiB())

	goldenOK, err := r.golden(digest)
	if err != nil {
		return nil, exitFailed, err
	}
	if !goldenOK {
		r.failed++
	}
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))

	r.printf("set-up: %d× median %.4f s; %d measured passes of %d operations\n", len(setups), median(setups), len(ps), ps[0].ops)
	r.printf("pass wall s: median %.4f  q1 %.4f  q3 %.4f  (n=%d)\n", median(walls), quantile(walls, 0.25), quantile(walls, 0.75), len(walls))
	r.printf("raw pass walls s: %.4f\n", raw)
	r.printf("calibration samples ns/op: %.3f\n", r.calib)
	r.printf("calibration: median %.3f ns/op, spread %.2f%% over %d samples\n", median(r.calib), spreadPct(r.calib), len(r.calib))
	r.printf("host: peak RSS %.1f MiB, %.1f allocations per 1000 instructions, %.1f ms of GC pauses\n", r.metrics["host.peak_rss_mb"], r.metrics["host.allocs_per_kinst"], r.metrics["host.gc_pause_ms"])
	r.printf("payload digest: %s\n", digest)
	for _, n := range r.notes {
		r.printf("note: %s\n", n)
	}

	r.printf("%-34s %16s  %s\n", "metric", "value", "unit")
	for _, d := range metricDefs(cfg.trace) {
		r.printf("%-34s %16.6g  %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	if !cfg.trace {
		// The workload's own end-to-end measures, which the result line
		// carries only on a traced run.
		for _, d := range perLayer {
			if v, ok := r.metrics[d.Name]; ok && v != 0 && !isLayerName(d.Name) {
				r.printf("%-34s %16.6g  %s\n", d.Name, v, d.Unit)
			}
		}
	}

	code := exitOK
	if spreadPct(r.calib) > noisyPct {
		r.printf("NOISY: calibration spread %.1f%% exceeds %.0f%%; the medians above are not to be trusted\n", spreadPct(r.calib), noisyPct)
		if cfg.strict {
			code = exitNoisy
		}
	}
	if r.failed > 0 {
		r.printf("FAILED: %d of %d operations\n", r.failed, r.attempted)
		code = exitFailed
	}
	return r, code, nil
}

// result is the run's result line: the end-to-end metrics, or the per-layer
// ones of a traced run.
func (r *run) result(traced bool) resultLine {
	res := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range metricDefs(traced) {
		res.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

// isLayerName reports whether a per-layer metric is named after a layer
// (has a package prefix) rather than being one of the issue's
// workload-specific end-to-end measures.
func isLayerName(name string) bool { return strings.Contains(name, ".") }

// measure runs passes until the frozen pass count or, past minPasses, until
// the next pass would overrun the budget, with the calibration kernel run
// after every pass. On a traced run every pass is followed by a traced twin.
func (r *run) measure(b bench, budget float64) (untraced, traced []pass) {
	var walls []float64
	start := time.Now()
	for len(untraced) < b.passes() {
		next := median(walls)
		if r.tr != nil {
			next *= 2
		}
		if budget > 0 && len(untraced) >= minPasses && seconds(time.Since(start))+next > budget {
			break
		}
		// As testing.B does before a timed run: every pass starts from a
		// collected heap, so neither its time nor the run's peak memory
		// depends on where the previous pass left the collector.
		runtime.GC()
		p := b.pass(nil)
		r.calibrate()
		p.scale = r.calibrated()
		untraced = append(untraced, p)
		walls = append(walls, p.wall)
		if r.tr != nil {
			runtime.GC()
			sp := r.tr.Start("pass")
			p := b.pass(r.tr)
			sp.End()
			r.calibrate()
			traced = append(traced, p)
		}
	}
	return untraced, traced
}

// check counts the passes' operations, fails every operation whose payload
// differs from the first pass's, and returns the digest of the first pass's
// payloads.
func (r *run) check(ps []pass) string {
	first := ps[0].payloads
	for _, p := range ps {
		r.attempted += p.ops
		r.failed += p.failed
		for i, raw := range p.payloads {
			if raw != nil && (i >= len(first) || first[i] == nil || !bytes.Equal(raw, first[i])) {
				r.failed++
			}
		}
	}
	h := sha256.New()
	for _, raw := range first {
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden compares the digest with the one pinned for this workload, or pins
// it under -update-golden. Digests are pinned for the default seed at the
// reference sizing only.
func (r *run) golden(digest string) (bool, error) {
	if r.cfg.seed != defaultSeed || r.cfg.smoke {
		if r.cfg.updateGolden {
			return false, errors.New("-update-golden pins the default seed at the reference sizing only")
		}
		return true, nil
	}
	raw := goldenJSON
	if r.cfg.updateGolden {
		// The file, not the copy compiled in: an earlier -update-golden of
		// another workload may have changed it since the build.
		var err error
		if raw, err = os.ReadFile(goldenPath); err != nil {
			return false, err
		}
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		return false, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if r.cfg.updateGolden {
		pinned[r.cfg.workload] = digest
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			return false, err
		}
		r.printf("pinned %s in %s\n", digest, goldenPath)
		return true, nil
	}
	want, ok := pinned[r.cfg.workload]
	if !ok {
		r.notef("no digest pinned for %s in %s; run with -update-golden", r.cfg.workload, goldenPath)
		return false, nil
	}
	if want != digest {
		r.notef("payload digest %s differs from the pinned %s: simulated results changed", digest, want)
		return false, nil
	}
	return true, nil
}

// disabledSpanNS times the tracer's disabled path: what an untraced run pays
// at each span site.
func disabledSpanNS() float64 {
	var tr *obs.Tracer
	const n = 1 << 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.Start("x").Arg("k", int64(i)).End()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func writeChrome(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
