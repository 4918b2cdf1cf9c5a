package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// size scales every workload: the reference sizing the frozen pass counts
// belong to, or the smoke sizing tier-1 tests run.
type size struct {
	div     int // instruction budgets are divided by this
	passes  int // 0 keeps each workload's frozen pass count
	service serviceSize
}

// passCount is the workload's frozen pass count, unless the sizing has its
// own.
func (s size) passCount(frozen int) int {
	if s.passes > 0 {
		return s.passes
	}
	return frozen
}

var (
	fullSize  = size{div: 1, service: serviceSize{cold: 25, hits: 2500, tiered: 1, tieredInsts: 4_000_000, fleet: 10}}
	smokeSize = size{div: 25, passes: 2, service: serviceSize{cold: 2, hits: 20, tiered: 1, tieredInsts: 1_000_000, fleet: 2}}
)

// specSet is the SPEC single-core set: five integer profiles (branchy,
// pointer-chasing) and three floating-point ones (streaming, chained).
var specSet = []string{"gcc", "vpr", "twolf", "parser", "mcf", "swim", "mesa", "art"}

func seedPtr(s int64) *int64 { return &s }

// sized returns sp with its measured budget divided by div; PARSEC profiles
// carry their own work budget, scaled instead.
func sized(sp simrun.Spec, div int) simrun.Spec {
	if div <= 1 {
		return sp
	}
	sp.Insts /= div
	if workload.PARSECByName(sp.Bench) != nil {
		scale := sp.WorkScale
		if scale == 0 {
			scale = 1
		}
		sp.WorkScale = scale / float64(div)
	}
	return sp
}

func specName(sp simrun.Spec) string {
	if sp.Label != "" {
		return sp.Label
	}
	return sp.Bench
}

// op is one scenario answered through the facade: simrun.New, Scenario.Run
// and report.JSON, each timed from outside.
type op struct {
	newS, runS, jsonS float64
	retired           uint64
	ipc               float64
	payload           []byte
	result            simrun.Result
}

// runSpec answers one spec the way every front end does. A non-nil tracer
// gets one span per call into a layer, plus the engine/warmup/measure spans
// the product emits once simrun.Observe is attached.
func runSpec(sp simrun.Spec, tr *obs.Tracer) (op, error) {
	var o op
	ssp := tr.Start("scenario:" + specName(sp))
	defer ssp.End()

	opts := sp.Options()
	if tr != nil {
		opts = append(opts, simrun.Observe(&obs.Observer{Tracer: tr}))
	}
	nsp := tr.Start("simrun.New")
	t0 := time.Now()
	s, err := simrun.New(sp.Bench, opts...)
	o.newS = seconds(time.Since(t0))
	nsp.End()
	if err != nil {
		return o, err
	}

	rsp := tr.Start("Scenario.Run")
	t1 := time.Now()
	res, err := s.Run(context.Background())
	o.runS = seconds(time.Since(t1))
	rsp.End()
	if err != nil {
		return o, err
	}
	if res.TimedOut || res.Interrupted {
		return o, fmt.Errorf("%s: run did not finish", specName(sp))
	}

	jsp := tr.Start("report.JSON")
	t2 := time.Now()
	raw, err := report.JSON(res.Result)
	o.jsonS = seconds(time.Since(t2))
	jsp.End()
	if err != nil {
		return o, err
	}
	o.retired = res.TotalRetired
	o.ipc = float64(res.TotalRetired) / float64(res.Cycles)
	o.payload = raw
	o.result = res
	return o, nil
}

// scenarioBench is a workload whose pass answers a fixed list of specs one
// after the other on one goroutine: spec-interval, spec-detailed and
// multicore-shared.
type scenarioBench struct {
	specs  []simrun.Spec
	frozen int
	sz     size
	// shared marks multicore-shared, whose traced run also measures the
	// shared hierarchy and the host-parallel engine.
	shared bool
	// twins are the specs of the other core model whose IPC the accuracy
	// metrics compare with, by scenario index; set-up runs them once.
	twins   map[int]simrun.Spec
	twinIPC map[int]float64
	// last holds the most recent pass's operations, for report and layers.
	last []op
}

func newSpecBench(model string, seed int64, sz size) *scenarioBench {
	b := &scenarioBench{sz: sz, twins: map[int]simrun.Spec{}}
	insts := 1_000_000
	b.frozen = 15
	if model == "detailed" {
		insts = 300_000
		b.frozen = 8
	}
	for i, name := range specSet {
		sp := sized(simrun.Spec{Bench: name, Model: model, Engine: "full", Insts: insts, Warmup: 300_000 / sz.div, Seed: seedPtr(seed + int64(i))}, sz.div)
		b.specs = append(b.specs, sp)
		if model == "detailed" {
			// The interval twin at identical budget and seed: the paper's
			// accuracy claim for every profile this workload times.
			tw := sp
			tw.Model = "interval"
			b.twins[i] = tw
		}
	}
	return b
}

func newMulticoreBench(seed int64, sz size) *scenarioBench {
	b := &scenarioBench{sz: sz, frozen: 8, shared: true, twins: map[int]simrun.Spec{}}
	shapes := []simrun.Spec{
		{Bench: "mcf", Label: "mcf4", Copies: 4},
		{Bench: "gcc", Label: "gcc4", Copies: 4},
		{Label: "mix4", Mix: []string{"gcc", "mcf", "swim", "twolf"}, Fabric: "mesh", Coherence: "directory", DRAM: "banked"},
		{Bench: "blackscholes", Label: "blackscholes4", Cores: 4},
		{Bench: "fluidanimate", Label: "fluidanimate4", Cores: 4, Fabric: "mesh", Coherence: "directory"},
		{Bench: "canneal", Label: "canneal8", Cores: 8},
	}
	for i, sp := range shapes {
		sp.Model = "interval"
		sp.Engine = "full"
		sp.Insts = 500_000
		sp.Warmup = 200_000 / sz.div
		sp.Seed = seedPtr(seed + int64(i))
		sp = sized(sp, sz.div)
		b.specs = append(b.specs, sp)
		// The detailed reference for one multi-program and one
		// multi-threaded scenario; all six would triple the set-up.
		if sp.Label == "mix4" || sp.Label == "blackscholes4" {
			tw := sp
			tw.Model = "detailed"
			b.twins[i] = tw
		}
	}
	return b
}

func (b *scenarioBench) passes() int { return b.sz.passCount(b.frozen) }

func (b *scenarioBench) close() {}

func (b *scenarioBench) setUp() error {
	b.twinIPC = map[int]float64{}
	for i, tw := range b.twins {
		o, err := runSpec(tw, nil)
		if err != nil {
			return err
		}
		b.twinIPC[i] = o.ipc
	}
	// The warm-up pass: every scenario at a quarter of its measured
	// budget, through the same calls the measured passes make.
	for _, sp := range b.specs {
		if _, err := runSpec(sized(sp, 4), nil); err != nil {
			return err
		}
	}
	return nil
}

func (b *scenarioBench) pass(tr *obs.Tracer) pass {
	p := pass{ops: len(b.specs), payloads: make([][]byte, len(b.specs)), mips: make([]float64, len(b.specs))}
	ops := make([]op, len(b.specs))
	t0 := time.Now()
	for i, sp := range b.specs {
		o, err := runSpec(sp, tr)
		if err != nil {
			p.failed++
			continue
		}
		ops[i] = o
		p.payloads[i] = o.payload
		p.mips[i] = float64(o.retired) / o.runS / 1e6
		p.insts += o.retired
	}
	p.wall = seconds(time.Since(t0))
	b.last = ops
	return p
}

func (b *scenarioBench) report(r *run, ps []pass) {
	var errs []float64
	for i, o := range b.last {
		ref, ok := b.twinIPC[i]
		if !ok || o.ipc == 0 {
			continue
		}
		// Error of the interval model against the detailed one, whichever
		// of the two the measured passes ran.
		interval, detailed := o.ipc, ref
		if b.specs[i].Model == "detailed" {
			interval, detailed = ref, o.ipc
		}
		e := 100 * math.Abs(interval-detailed) / detailed
		errs = append(errs, e)
		r.printf("accuracy %-14s interval IPC %.4f  detailed IPC %.4f  error %.2f%%\n", specName(b.specs[i]), interval, detailed, e)
	}
	if len(errs) > 0 {
		r.set("ipc_err_avg_pct", sum(errs)/float64(len(errs)))
		r.set("ipc_err_max_pct", quantile(errs, 1))
	}
	r.printf("%-14s %10s %10s %10s %10s\n", "scenario", "run ms", "MIPS", "new us", "json us")
	for i, o := range b.last {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.mips[i])
		}
		r.printf("%-14s %10.2f %10.3f %10.1f %10.1f\n", specName(b.specs[i]), 1e3*o.runS, median(xs), 1e6*o.newS, 1e6*o.jsonS)
	}
}

// sweepBench is the design-space cull: one Spec JSON document of 72 points,
// loaded and run through a 2-worker batch every pass.
type sweepBench struct {
	doc    []byte
	warm   []byte
	sz     size
	points int
}

func newSweepBench(seed int64, sz size) *sweepBench {
	build := func(div int) []byte {
		file := simrun.SpecFile{Defaults: sized(simrun.Spec{Model: "interval", Insts: 100_000, Warmup: 200_000 / sz.div}, div)}
		i := int64(0)
		for _, bench := range []string{"gcc", "mcf", "swim", "twolf"} {
			for _, fabric := range []string{"bus", "mesh", "ring"} {
				for _, predictor := range []string{"local", "gshare", "tournament"} {
					for _, prefetch := range []string{"none", "stride"} {
						file.Scenarios = append(file.Scenarios, simrun.Spec{Bench: bench, Fabric: fabric, Predictor: predictor, Prefetch: prefetch, Seed: seedPtr(seed + i)})
						i++
					}
				}
			}
		}
		raw, err := json.Marshal(file)
		if err != nil {
			panic(err) // a struct of strings and ints always encodes
		}
		return raw
	}
	return &sweepBench{doc: build(sz.div), warm: build(4 * sz.div), sz: sz, points: 4 * 3 * 3 * 2}
}

func (b *sweepBench) passes() int { return b.sz.passCount(14) }

func (b *sweepBench) close() {}

// batch loads doc and runs it on the given number of workers, returning
// one payload per scenario (nil where the run failed) and the instructions
// retired.
func (b *sweepBench) batch(doc []byte, workers int, tr *obs.Tracer) (payloads [][]byte, insts uint64, err error) {
	lsp := tr.Start("simrun.LoadSpecs")
	scs, err := simrun.LoadSpecs(bytes.NewReader(doc))
	lsp.End()
	if err != nil {
		return nil, 0, err
	}
	bsp := tr.Start("simrun.Batch")
	results := simrun.Batch(context.Background(), scs, simrun.BatchOpts{Workers: workers})
	bsp.End()
	jsp := tr.Start("report.JSON")
	defer jsp.End()
	payloads = make([][]byte, len(results))
	for i, br := range results {
		if br.Err != nil || br.Result.TimedOut {
			continue
		}
		raw, err := report.JSON(br.Result.Result)
		if err != nil {
			continue
		}
		payloads[i] = raw
		insts += br.Result.TotalRetired
	}
	return payloads, insts, nil
}

func (b *sweepBench) setUp() error {
	_, _, err := b.batch(b.warm, 2, nil)
	return err
}

func (b *sweepBench) pass(tr *obs.Tracer) pass {
	t0 := time.Now()
	payloads, insts, err := b.batch(b.doc, 2, tr)
	wall := seconds(time.Since(t0))
	p := pass{wall: wall, ops: b.points, payloads: payloads, insts: insts}
	if err != nil {
		p.payloads = make([][]byte, b.points)
	}
	for _, raw := range p.payloads {
		if raw == nil {
			p.failed++
		}
	}
	// One aggregate speed sample: the batch hides each scenario's own
	// wall clock, and two run at a time.
	p.mips = []float64{float64(insts) / wall / 1e6}
	return p
}

func (b *sweepBench) report(r *run, ps []pass) {}
