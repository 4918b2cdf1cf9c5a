package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simd"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the traced run's layer budget: where an instruction's host
// time goes, layer by layer, measured from outside. Two sources feed it.
// Spans — the benchmark's own around every call into a layer, plus the
// engine/warmup/measure spans the product emits under simrun.Observe — give
// exact self times (a span's duration minus what its children cover) that
// sum to the pass. The warmup and measure spans, which are opaque from
// outside, are then split by recording each scenario's stream once and
// replaying the pieces through public entry points: the generator alone,
// multicore.Warmup and multicore.Run over recorded streams, the hierarchy
// alone, a cache and a TLB alone, the branch unit alone. What the pieces do
// not explain is printed as the residual, never hidden.

// selfTimes returns the self time in microseconds of every span name —
// duration minus the part of it child spans cover, nesting by containment
// within a track — grouped by the name of the outermost span it sits under.
func selfTimes(spans []obs.SpanRec) map[string]map[string]float64 {
	byTID := map[int][]obs.SpanRec{}
	for _, s := range spans {
		byTID[s.TID] = append(byTID[s.TID], s)
	}
	self := map[string]map[string]float64{}
	for _, track := range byTID {
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].StartUS != track[j].StartUS {
				return track[i].StartUS < track[j].StartUS
			}
			return track[i].DurUS > track[j].DurUS
		})
		type open struct {
			name     string
			end      int64
			dur      int64
			children int64
		}
		var stack []open
		pop := func() {
			top := stack[len(stack)-1]
			if d := top.dur - top.children; d > 0 {
				root := stack[0].name
				if self[root] == nil {
					self[root] = map[string]float64{}
				}
				self[root][top.name] += float64(d)
			}
			stack = stack[:len(stack)-1]
		}
		for _, s := range track {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.StartUS {
				pop()
			}
			if len(stack) > 0 {
				parent := &stack[len(stack)-1]
				covered := s.DurUS
				if s.StartUS+covered > parent.end {
					covered = parent.end - s.StartUS
				}
				parent.children += covered
			}
			stack = append(stack, open{name: s.Name, end: s.StartUS + s.DurUS, dur: s.DurUS})
		}
		for len(stack) > 0 {
			pop()
		}
	}
	return self
}

// replay is what the recorded streams of one or more scenarios cost when
// replayed through each layer on its own. Times are nanoseconds, summed
// over scenarios; divide by the matching count.
type replay struct {
	insts, warmInsts uint64 // measured and warm-up instructions

	genNS     float64 // Generator.NextBatch alone, measured + warm-up
	limitNS   float64 // the same through trace.Limit, as the driver pulls it
	sliceNS   float64 // draining a SliceStream of the measured stream
	warmupNS  float64 // multicore.Warmup over recorded warm-up streams
	runNS     float64 // multicore.Run's measure loop over recorded streams
	memNS     float64 // Hierarchy.Inst/Data over the recorded pcs and addresses
	cacheNS   float64 // Cache.Access (+Fill on a miss) over the data addresses
	tlbNS     float64 // TLB.Access over the data addresses
	branchNS  float64 // branch.Unit.Predict over the recorded branches
	otherNS   float64 // the other core model over the comparison prefix
	sameNS    float64 // this core model over the same prefix
	oneipcNS  float64 // the one-IPC model over the measured stream
	memAccess uint64  // data accesses replayed through cache and TLB

	lookups, mispredicts          uint64
	dataAccesses, l1dMiss, l2Miss uint64
	missEvents                    uint64
	mem                           report.MemSummary
	unfaithful                    []string
}

// comparePrefix bounds the instructions per thread the other core model
// replays for core.speedup_vs_ooo: the detailed model is ~5× slower.
const comparePrefix = 100_000

func modelOf(name string) multicore.Model {
	if name == "detailed" {
		return multicore.Detailed
	}
	return multicore.Interval
}

// generators rebuilds the measured and warm-up generators simrun builds for
// the spec (simrun's buildStreams, which is not exported): SPEC copies share
// a seed and differ by thread, mix copies get a seed and an address-space
// slot each, PARSEC threads split a scaled work budget, and the warm-up
// twin's seed is 1000 further on. The replay checks its cycle count against
// the facade's, so a divergence is reported rather than silently measured.
func generators(sp simrun.Spec, sc *simrun.Scenario) (meas, warm []*workload.Generator) {
	n, seed := sc.Threads(), sc.SeedValue()
	const warmSeedOffset = 1000
	for i := 0; i < n; i++ {
		switch p := sc.Profile(); {
		case len(sp.Mix) > 0:
			mp := workload.SPECByName(sp.Mix[i%len(sp.Mix)])
			meas = append(meas, workload.NewSlot(mp, 0, 1, seed+int64(i), i))
			warm = append(warm, workload.NewSlot(mp, 0, 1, seed+warmSeedOffset+int64(i), i))
		case p.MultiThreaded():
			q := *p
			if sp.WorkScale > 0 && sp.WorkScale != 1 {
				q.TotalWork = uint64(float64(q.TotalWork) * sp.WorkScale)
			}
			meas = append(meas, workload.New(&q, i, n, seed))
			warm = append(warm, workload.New(&q, i, n, seed+warmSeedOffset))
		default:
			meas = append(meas, workload.New(p, i, n, seed))
			warm = append(warm, workload.New(p, i, n, seed+warmSeedOffset))
		}
	}
	return meas, warm
}

// drain pulls up to n instructions (all of them when n < 0) in driver-sized
// batches and returns how many came.
func drain(s trace.BatchStream, n int, buf []isa.Inst) int {
	got := 0
	for n < 0 || got < n {
		want := len(buf)
		if n >= 0 && n-got < want {
			want = n - got
		}
		k := s.NextBatch(buf[:want])
		if k == 0 {
			break
		}
		got += k
	}
	return got
}

// record keeps up to n instructions of s (all of them when n < 0). Unlike
// trace.Record it grows as it goes: a PARSEC thread's length is not known
// beforehand.
func record(s trace.BatchStream, n int, buf []isa.Inst) []isa.Inst {
	var out []isa.Inst
	for n < 0 || len(out) < n {
		want := len(buf)
		if n >= 0 && n-len(out) < want {
			want = n - len(out)
		}
		k := s.NextBatch(buf[:want])
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	return out
}

func sliceStreams(recs [][]isa.Inst, limit int) []trace.Stream {
	out := make([]trace.Stream, len(recs))
	for i, rec := range recs {
		if limit > 0 && len(rec) > limit {
			rec = rec[:limit]
		}
		out[i] = trace.NewSliceStream(rec)
	}
	return out
}

// replayScenario records sp's streams once and replays the pieces, adding
// the costs to rp. want is the cycle count the facade reported.
func replayScenario(rp *replay, sp simrun.Spec, want int64) error {
	sc, err := sp.Scenario()
	if err != nil {
		return err
	}
	machine, err := sc.ResolvedMachine()
	if err != nil {
		return err
	}
	n := sc.Threads()
	budget := sp.Insts // per thread; PARSEC streams end by themselves
	if sc.Profile() != nil && sc.Profile().MultiThreaded() {
		budget = -1
	}
	buf := make([]isa.Inst, 4096)

	// The generator alone, then through trace.Limit as the driver pulls it,
	// after an untimed drain so that neither pays for first use.
	meas, warm := generators(sp, sc)
	for i := range meas {
		drain(meas[i], budget, buf)
		drain(warm[i], sp.Warmup, buf)
	}
	meas, warm = generators(sp, sc)
	t0 := time.Now()
	for i := range meas {
		rp.insts += uint64(drain(meas[i], budget, buf))
		rp.warmInsts += uint64(drain(warm[i], sp.Warmup, buf))
	}
	rp.genNS += float64(time.Since(t0).Nanoseconds())
	meas, warm = generators(sp, sc)
	t0 = time.Now()
	for i := range meas {
		if budget >= 0 {
			drain(trace.NewLimit(meas[i], budget), -1, buf)
		} else {
			drain(meas[i], -1, buf)
		}
		drain(trace.NewLimit(warm[i], sp.Warmup), -1, buf)
	}
	rp.limitNS += float64(time.Since(t0).Nanoseconds())

	// Record once, untimed.
	meas, warm = generators(sp, sc)
	recs := make([][]isa.Inst, n)
	wrecs := make([][]isa.Inst, n)
	for i := range meas {
		recs[i] = record(meas[i], budget, buf)
		wrecs[i] = record(warm[i], sp.Warmup, buf)
	}
	t0 = time.Now()
	for _, s := range sliceStreams(recs, 0) {
		drain(trace.Batched(s), -1, buf)
	}
	rp.sliceNS += float64(time.Since(t0).Nanoseconds())

	newMachine := func() (*memhier.Hierarchy, []*branch.Unit) {
		mem := memhier.New(n, machine.Mem, memhier.Perfect{})
		bps := make([]*branch.Unit, n)
		for i := range bps {
			bps[i] = branch.NewUnit(machine.Branch)
		}
		return mem, bps
	}

	// Functional warm-up over the recorded warm-up streams.
	mem, bps := newMachine()
	t0 = time.Now()
	multicore.Warmup(mem, bps, sliceStreams(wrecs, 0), sp.Warmup)
	rp.warmupNS += float64(time.Since(t0).Nanoseconds())

	// The timed loop over the recorded streams: core + memhier + branch,
	// no generator. Result.Wall covers the measure loop only.
	runOver := func(model multicore.Model, limit int, keep bool) multicore.Result {
		return multicore.Run(multicore.RunConfig{
			Machine: machine, Model: model, WarmupInsts: sp.Warmup,
			Warmup: sliceStreams(wrecs, 0), KeepCores: keep,
		}, sliceStreams(recs, limit))
	}
	model := modelOf(sp.Model)
	res := runOver(model, 0, true)
	rp.runNS += float64(res.Wall.Nanoseconds())
	if res.Cycles != want {
		rp.unfaithful = append(rp.unfaithful, fmt.Sprintf("%s (replay %d cycles, facade %d)", specName(sp), res.Cycles, want))
	}
	st := res.Mem.Stats()
	rp.dataAccesses += st.DataAccesses
	for i := 0; i < n; i++ {
		rp.l1dMiss += res.Mem.L1D(i).Misses
		if c, ok := res.Sim[i].(*core.Core); ok {
			rp.missEvents += c.Intervals().Events
		}
	}
	if sum := report.Summarize(res).Mem; sum != nil {
		if sum.L2 != nil {
			rp.l2Miss += sum.L2.Misses
		}
		rp.mem.Coherence.Invalidations += sum.Coherence.Invalidations
		rp.mem.Coherence.Interventions += sum.Coherence.Interventions
		rp.mem.Fabric.Transactions += sum.Fabric.Transactions
		rp.mem.Fabric.StallCycles += sum.Fabric.StallCycles
		rp.mem.DRAM.Requests += sum.DRAM.Requests
		rp.mem.DRAM.StallCycles += sum.DRAM.StallCycles
	}

	// Both core models over the same prefix, and the one-IPC floor.
	other := multicore.Detailed
	if model == multicore.Detailed {
		other = multicore.Interval
	}
	rp.otherNS += float64(runOver(other, comparePrefix, false).Wall.Nanoseconds())
	rp.sameNS += float64(runOver(model, comparePrefix, false).Wall.Nanoseconds())
	rp.oneipcNS += float64(runOver(multicore.OneIPC, 0, false).Wall.Nanoseconds())

	// The hierarchy alone, threads interleaved instruction by instruction.
	// Its time arguments are synthetic (one cycle per instruction), so bus,
	// fabric and DRAM queueing differ from the timed run: an approximation.
	mem, bps = newMachine()
	multicore.Warmup(mem, bps, sliceStreams(wrecs, 0), sp.Warmup)
	longest := 0
	for _, rec := range recs {
		if len(rec) > longest {
			longest = len(rec)
		}
	}
	t0 = time.Now()
	for j := 0; j < longest; j++ {
		for i, rec := range recs {
			if j >= len(rec) {
				continue
			}
			in := &rec[j]
			if in.Class.IsSync() {
				continue
			}
			mem.Inst(i, in.PC, int64(j))
			if in.Class.IsMem() {
				mem.Data(i, in.Addr, in.Class == isa.Store, int64(j))
			}
		}
	}
	rp.memNS += float64(time.Since(t0).Nanoseconds())

	// One L1D, one D-TLB and one branch unit per thread, alone, over the
	// addresses and branches picked out beforehand so that only the calls
	// are timed.
	for _, rec := range recs {
		var addrs []uint64
		var writes []bool
		var branches []isa.Inst
		for j := range rec {
			switch in := &rec[j]; {
			case in.Class.IsMem():
				addrs = append(addrs, in.Addr)
				writes = append(writes, in.Class == isa.Store)
			case in.Class.IsBranch():
				branches = append(branches, *in)
			}
		}
		rp.memAccess += uint64(len(addrs))
		rp.lookups += uint64(len(branches))
		l1 := cache.New(machine.Mem.L1D)
		t0 = time.Now()
		for j, a := range addrs {
			if !l1.Access(a, writes[j]) {
				l1.Fill(a, writes[j])
			}
		}
		rp.cacheNS += float64(time.Since(t0).Nanoseconds())
		tlb := cache.NewTLB(machine.Mem.DTLB)
		t0 = time.Now()
		for _, a := range addrs {
			tlb.Access(a)
		}
		rp.tlbNS += float64(time.Since(t0).Nanoseconds())
		bp := branch.NewUnit(machine.Branch)
		t0 = time.Now()
		for j := range branches {
			if bp.Predict(&branches[j]) {
				rp.mispredicts++
			}
		}
		rp.branchNS += float64(time.Since(t0).Nanoseconds())
	}
	return nil
}

// budgetRow is one line of the layer-budget table.
type budgetRow struct {
	name   string
	ns     float64 // per measured instruction
	indent int     // indented rows split the row above and are not summed
}

// layerBudget prints the budget of the given specs and sets the per-layer
// metrics. spans must hold passes traced passes over exactly these specs;
// facade gives the cycle count the facade reported for each.
func layerBudget(r *run, specs []simrun.Spec, facade []int64, spans []obs.SpanRec, passes int) {
	var rp replay
	for i, sp := range specs {
		if err := replayScenario(&rp, sp, facade[i]); err != nil {
			r.notef("layer budget: %v", err)
			return
		}
	}
	insts := float64(rp.insts)
	if insts == 0 || passes == 0 {
		return
	}
	all := insts + float64(rp.warmInsts)
	self := selfTimes(spans)
	// Microseconds over all traced passes → ns per measured instruction.
	// A name ending in a colon matches every span it prefixes.
	span := func(name string) float64 {
		total := 0.0
		for _, byName := range self {
			for k, us := range byName {
				if k == name || (strings.HasSuffix(name, ":") && strings.HasPrefix(k, name)) {
					total += us
				}
			}
		}
		return 1e3 * total / float64(passes) / insts
	}

	genPerInst := rp.genNS / all
	handoff := (rp.limitNS - rp.genNS) / all
	slice := rp.sliceNS / insts
	memhierNS := rp.memNS / insts
	branchNS := rp.branchNS / insts
	coreSelf := rp.runNS/insts - slice - memhierNS
	if specs[0].Model != "oneipc" {
		coreSelf -= branchNS
	}
	warming := rp.warmupNS / insts
	warmGen := genPerInst * float64(rp.warmInsts) / insts
	warmHandoff := handoff * float64(rp.warmInsts) / insts
	warmSpan, measSpan := span("warmup"), span("measure")
	warmRes := warmSpan - warmGen - warmHandoff - warming
	measRes := measSpan - genPerInst - handoff - coreSelf - memhierNS - branchNS

	rows := []budgetRow{
		{"pass + scenario loop (self)", span("pass") + span("scenario:"), 0},
		{"simrun.New", span("simrun.New"), 0},
		{"Scenario.Run (self: dispatch)", span("Scenario.Run"), 0},
		{"engine:full (self: construction)", span("engine:"), 0},
		{"warmup span", warmSpan, 0},
		{"workload generation", warmGen, 1},
		{"trace hand-off", warmHandoff, 1},
		{"multicore.Warmup over recorded streams", warming, 1},
		{"residual", warmRes, 1},
		{"measure span", measSpan, 0},
		{"workload generation", genPerInst, 1},
		{"trace hand-off", handoff, 1},
		{specs[0].Model + " core (self)", coreSelf, 1},
		{"memhier Inst/Data (approx.)", memhierNS, 1},
		{"cache.Access+Fill alone", rp.cacheNS / insts, 2},
		{"TLB.Access alone", rp.tlbNS / insts, 2},
		{"branch.Predict", branchNS, 1},
		{"residual", measRes, 1},
		{"report.JSON", span("report.JSON"), 0},
	}
	total := 0.0
	for _, row := range rows {
		if row.indent == 0 {
			total += row.ns
		}
	}
	r.printf("layer budget: ns per measured instruction, %d scenarios, %d traced passes, %.0f measured + %.0f warm-up instructions per pass\n",
		len(specs), passes, insts, float64(rp.warmInsts))
	for _, row := range rows {
		r.printf("  %s%-*s %9.2f  %5.1f%%\n", strings.Repeat("  ", row.indent), 42-2*row.indent, row.name, row.ns, 100*row.ns/total)
	}
	r.printf("  %-42s %9.2f  100.0%%  (= traced pass wall / measured instructions)\n", "end to end", total)
	r.printf("  indented rows split the row above them by replaying recorded streams through public entry points; the memhier replay is an\n")
	r.printf("  approximation (its time arguments are synthetic, so queueing in the bus, fabric and DRAM differs from the timed run).\n")
	for _, u := range rp.unfaithful {
		r.notef("layer budget: the replayed streams are not the facade's for %s; the split of warmup/measure is unreliable", u)
	}

	r.set("workload.gen_ns_per_inst", genPerInst)
	r.set("workload.insts_generated", all)
	r.set("trace.replay_ns_per_inst", slice)
	r.set("trace.handoff_ns_per_inst", handoff)
	if specs[0].Model == "detailed" {
		r.set("ooo.self_ns_per_inst", coreSelf)
		r.set("core.speedup_vs_ooo", rp.sameNS/rp.otherNS)
	} else {
		r.set("core.self_ns_per_inst", coreSelf)
		r.set("core.miss_events_per_kinst", 1e3*float64(rp.missEvents)/insts)
		r.set("core.speedup_vs_ooo", rp.otherNS/rp.sameNS)
	}
	r.set("oneipc.self_ns_per_inst", rp.oneipcNS/insts-slice-memhierNS)
	r.set("branch.predict_ns_per_inst", branchNS)
	r.set("branch.lookups", float64(rp.lookups))
	r.set("branch.mispredicts", float64(rp.mispredicts))
	if rp.memAccess > 0 {
		r.set("cache.access_ns", rp.cacheNS/float64(rp.memAccess))
		r.set("cache.tlb_access_ns", rp.tlbNS/float64(rp.memAccess))
	}
	r.set("memhier.ns_per_inst", memhierNS)
	r.set("memhier.data_accesses", float64(rp.dataAccesses))
	r.set("memhier.l1d_misses", float64(rp.l1dMiss))
	r.set("memhier.l2_misses", float64(rp.l2Miss))
	r.set("coherence.invalidations", float64(rp.mem.Coherence.Invalidations))
	r.set("coherence.interventions", float64(rp.mem.Coherence.Interventions))
	r.set("noc.transactions", float64(rp.mem.Fabric.Transactions))
	r.set("noc.stall_cycles", float64(rp.mem.Fabric.StallCycles))
	r.set("memory.dram_requests", float64(rp.mem.DRAM.Requests))
	r.set("memory.stall_cycles", float64(rp.mem.DRAM.StallCycles))
	if rp.warmInsts > 0 {
		r.set("multicore.warmup_ns_per_inst", rp.warmupNS/float64(rp.warmInsts))
	}
	r.set("multicore.residual_ns_per_inst", warmRes+measRes)
	r.set("simrun.new_us", span("simrun.New")*insts/1e3/float64(len(specs)))
	r.set("report.json_us", span("report.JSON")*insts/1e3/float64(len(specs)))
}

func (b *scenarioBench) layers(r *run) {
	facade := make([]int64, len(b.specs))
	bytesTotal := 0
	for i, o := range b.last {
		facade[i] = o.result.Cycles
		bytesTotal += len(o.payload)
	}
	spans := r.tr.Spans()
	passes := 0
	for _, s := range spans {
		if s.Name == "pass" {
			passes++
		}
	}
	layerBudget(r, b.specs, facade, spans, passes)
	r.set("report.json_bytes", float64(bytesTotal)/float64(len(b.specs)))
	if b.shared {
		b.sharedLayers(r)
	}
}

// sharedLayers takes the measurements only multicore-shared has: what the
// mesh, the directory and banked DRAM cost mix4 over the baseline machine,
// and the host-parallel engine against the sequential driver on the copies
// scenarios (whose payloads must not change).
func (b *scenarioBench) sharedLayers(r *run) {
	const reps = 2
	timeSpec := func(sp simrun.Spec, want []byte) (float64, uint64) {
		var xs []float64
		var retired uint64
		for i := 0; i < reps; i++ {
			o, err := runSpec(sp, nil)
			r.attempted++
			if err != nil || (want != nil && !bytes.Equal(o.payload, want)) {
				r.failed++
				continue
			}
			xs = append(xs, o.runS)
			retired = o.retired
		}
		return median(xs), retired
	}
	for i, sp := range b.specs {
		if sp.Label != "mix4" {
			continue
		}
		base := sp
		base.Fabric, base.Coherence, base.DRAM = "", "", ""
		shared, n := timeSpec(sp, b.last[i].payload)
		plain, _ := timeSpec(base, nil)
		if n > 0 {
			r.set("memhier.shared_delta_ns_per_inst", 1e9*(shared-plain)/float64(n))
		}
	}
	before := defaultCounter("simrun_sequential_fallbacks_total")
	var seq, par float64
	for i, sp := range b.specs {
		if sp.Copies == 0 {
			continue
		}
		s, _ := timeSpec(sp, b.last[i].payload)
		hp := sp
		hp.HostPar = 2
		p, _ := timeSpec(hp, b.last[i].payload)
		seq += s
		par += p
	}
	if par > 0 {
		r.set("parsim.par_over_seq", seq/par)
	}
	r.set("parsim.fallbacks", defaultCounter("simrun_sequential_fallbacks_total")-before)
}

// defaultCounter reads a process-wide counter the way an operator would:
// from the text exposition.
func defaultCounter(name string) float64 {
	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf); err != nil {
		return 0
	}
	return metricValueOf(&buf, name)
}

func metricValueOf(rd io.Reader, name string) float64 {
	fams, err := obs.ParseText(rd)
	if err != nil {
		return 0
	}
	total := 0.0
	if f := fams[name]; f != nil {
		for _, s := range f.Samples {
			total += s.Value
		}
	}
	return total
}

// layers for sweep-batch: what loading and fingerprinting a spec costs, how
// well the 2-worker batch scales, and the layer budget of a sample of the
// design space answered one scenario at a time.
func (b *sweepBench) layers(r *run) {
	const reps = 5
	var loads, prints []float64
	var specs []simrun.Spec
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		scs, err := simrun.LoadSpecs(bytes.NewReader(b.doc))
		loads = append(loads, seconds(time.Since(t0)))
		if err != nil {
			r.notef("sweep layers: %v", err)
			return
		}
		t0 = time.Now()
		for _, s := range scs {
			if _, err := s.Fingerprint(); err != nil {
				r.notef("sweep layers: %v", err)
				return
			}
		}
		prints = append(prints, seconds(time.Since(t0)))
	}
	r.set("simrun.load_specs_us_per_spec", 1e6*median(loads)/float64(b.points))
	r.set("simrun.fingerprint_us", 1e6*median(prints)/float64(b.points))

	t0 := time.Now()
	payloads, _, err := b.batch(b.doc, 1, nil)
	one := seconds(time.Since(t0))
	if err == nil && r.metrics["pass_wall_s"] > 0 {
		r.set("simrun.batch_efficiency", one/(2*r.metrics["pass_wall_s"]))
	}
	bytesTotal := 0
	for _, raw := range payloads {
		bytesTotal += len(raw)
	}
	r.set("report.json_bytes", float64(bytesTotal)/float64(b.points))

	// Every ninth point: each bench on two of its eighteen machines.
	specs, err = simrun.LoadRawSpecs(bytes.NewReader(b.doc))
	if err != nil {
		r.notef("sweep layers: %v", err)
		return
	}
	var sample []simrun.Spec
	var facade []int64
	lt := obs.NewTracer(0)
	at := r.tr.Now()
	for i := 0; i < len(specs); i += 9 {
		o, err := runSpec(specs[i], lt)
		if err != nil {
			r.notef("sweep layers: %v", err)
			return
		}
		sample = append(sample, specs[i])
		facade = append(facade, o.result.Cycles)
	}
	r.tr.Splice(lt.Spans(), at, 1)
	r.tr.NameTID(1, "layer-budget sample")
	layerBudget(r, sample, facade, lt.Spans(), 1)
}

// layers for service-mix: the service's own counters, the pieces of a
// request timed without the service around them, and where a cold, a tiered
// and a fleet-routed request spend their time.
func (b *serviceBench) layers(r *run) {
	if b.lastNode == nil || b.lastFleet == nil || len(b.cold[0]) == 0 {
		return
	}
	// The service's and the coordinator's own counters, read the way an
	// operator reads them.
	if resp, err := http.Get(b.lastNode.ts.URL + "/metrics"); err == nil {
		raw, _ := io.ReadAll(resp.Body) // a short read only loses counters
		resp.Body.Close()
		r.set("simd.deduped", metricValueOf(bytes.NewReader(raw), "simd_jobs_deduplicated_total"))
		r.set("simd.rejected", metricValueOf(bytes.NewReader(raw), "simd_jobs_rejected_total"))
		r.set("simrun.cache_runs", metricValueOf(bytes.NewReader(raw), "simd_cache_runs_total"))
	}
	st := b.lastFleet.coord.Status()
	r.set("fleet.retries", float64(st.Retries))
	r.set("fleet.local_fallbacks", float64(st.LocalRuns))

	// A resubmission without HTTP around it.
	var direct, news, prints, puts, lookups, encodes []float64
	for i := 0; i < 2000; i++ {
		q := b.cold[0][i%len(b.cold[0])]
		t0 := time.Now()
		_, dup, err := b.lastNode.srv.SubmitSpec(q.spec)
		direct = append(direct, seconds(time.Since(t0)))
		if err != nil || !dup {
			r.notef("service layers: direct resubmission was not deduplicated (%v)", err)
			break
		}
	}
	r.set("simd.submit_direct_us", 1e6*median(direct))
	r.set("simd.http_overhead_us", r.metrics["hit_p50_us"]-1e6*median(direct))

	// Spec → scenario → fingerprint → cache, each alone, on a cache of
	// the benchmark's own.
	own, err := newCache()
	if err != nil {
		r.notef("service layers: %v", err)
		return
	}
	var keys []string
	csp := r.tr.Start("simrun.Cache.Put+Lookup")
	for _, q := range b.cold[0] {
		t0 := time.Now()
		sc, err := q.spec.Scenario()
		news = append(news, seconds(time.Since(t0)))
		if err != nil {
			continue
		}
		t0 = time.Now()
		key, err := sc.Fingerprint()
		prints = append(prints, seconds(time.Since(t0)))
		if err != nil {
			continue
		}
		t0 = time.Now()
		own.Put(key, q.full, simrun.TierInterval)
		puts = append(puts, seconds(time.Since(t0)))
		keys = append(keys, key)
	}
	for i := 0; i < 20000 && len(keys) > 0; i++ {
		t0 := time.Now()
		own.Lookup(keys[i%len(keys)], simrun.TierInterval)
		lookups = append(lookups, seconds(time.Since(t0)))
	}
	csp.End()
	r.set("simrun.new_us", 1e6*median(news))
	r.set("simrun.fingerprint_us", 1e6*median(prints))
	r.set("simrun.cache_put_us", 1e6*median(puts))
	r.set("simrun.cache_lookup_ns", 1e9*median(lookups))

	// Result encoding, and the estimator engines against the full answer.
	if sc, err := b.cold[0][0].spec.Scenario(); err == nil {
		if res, err := sc.Run(context.Background()); err == nil {
			for i := 0; i < 1000; i++ {
				t0 := time.Now()
				simd.Encode(res)
				encodes = append(encodes, seconds(time.Since(t0)))
			}
			r.set("report.json_us", 1e6*median(encodes))
			r.set("report.json_bytes", float64(len(b.cold[0][0].full)))
		}
	}
	if len(b.tiered[0]) > 0 {
		q := b.tiered[0][0]
		if sc, err := q.spec.Scenario(); err == nil {
			if full, err := sc.Run(context.Background()); err == nil {
				ipc := float64(full.TotalRetired) / float64(full.Cycles)
				for _, eng := range []string{"statistical", "simpoint"} {
					est, err := sc.ForEngine(eng)
					if err != nil {
						continue
					}
					t0 := time.Now()
					eres, err := est.Run(context.Background())
					d := seconds(time.Since(t0))
					if err != nil || eres.Cycles == 0 {
						continue
					}
					eipc := float64(eres.TotalRetired) / float64(eres.Cycles)
					r.set("engine."+eng+"_ms", 1e3*d)
					r.set("engine."+eng+"_err_pct", 100*math.Abs(eipc-ipc)/ipc)
				}
			}
			if p := sc.Profile(); p != nil {
				g := workload.New(p, 0, 1, sc.SeedValue())
				t0 := time.Now()
				if err := g.SkipTo(uint64(q.spec.Insts) * 3 / 4); err == nil {
					r.set("workload.skipto_us", 1e6*seconds(time.Since(t0)))
				}
			}
		}
	}

	// Where a request's time goes, by route: self times of the client's
	// request span and of the job's own spans spliced underneath it.
	spans := r.tr.Spans()
	var queue []float64
	roots := map[string]int{}
	for _, s := range spans {
		if s.Name == "queue" {
			queue = append(queue, float64(s.DurUS)/1e3)
		}
		if strings.HasPrefix(s.Name, "http:") {
			roots[s.Name]++
		}
	}
	r.set("simd.queue_wait_ms", median(queue))
	self := selfTimes(spans)
	for _, root := range []string{"http:cold", "http:tiered", "http:fleet"} {
		n := roots[root]
		if n == 0 {
			continue
		}
		names := make([]string, 0, len(self[root]))
		total := 0.0
		for name, us := range self[root] {
			names = append(names, name)
			total += us
		}
		sort.Strings(names)
		r.printf("layer budget: %s, µs per request over %d requests (self time = span minus children)\n", root, n)
		for _, name := range names {
			label := name
			if name == root {
				label += " (self: HTTP, event stream, scheduling)"
			}
			us := self[root][name] / float64(n)
			r.printf("  %-54s %11.1f  %5.1f%%\n", label, us, 100*self[root][name]/total)
		}
		r.printf("  %-54s %11.1f  100.0%%  (= mean submit→final answer)\n", "end to end", total/float64(n))
	}
}
