// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus micro-benchmarks on the simulator hot paths.
//
// Each figure benchmark runs the corresponding experiment at a reduced
// size and reports simulated instructions per host second for both core
// models, so `go test -bench .` regenerates the paper's entire evaluation
// (use cmd/experiments for full-size tables).
package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/ooo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpts sizes figure benchmarks small enough to iterate.
func benchOpts() experiments.Opts {
	o := experiments.Quick()
	o.Insts = 10_000
	o.Warmup = 100_000
	o.WorkScale = 0.1
	return o
}

// Figure benchmarks: each b.N iteration regenerates the artifact once.

func BenchmarkFig4a(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4a") }) }
func BenchmarkFig4b(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4b") }) }
func BenchmarkFig4c(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4c") }) }
func BenchmarkFig4d(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4d") }) }
func BenchmarkFig5(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig5() }) }
func BenchmarkFig6(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig6() }) }
func BenchmarkFig7(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig7() }) }
func BenchmarkFig8(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig8() }) }
func BenchmarkFig9(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig9() }) }
func BenchmarkFig10(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig10() }) }

// BenchmarkAblationOneIPC regenerates the one-IPC ablation table.
func BenchmarkAblationOneIPC(b *testing.B) {
	benchFig(b, func(o experiments.Opts) { o.Ablation() })
}

func benchFig(b *testing.B, f func(experiments.Opts)) {
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(o)
	}
}

// Simulator-throughput benchmarks: simulated instructions per host second
// for each core model on a representative workload. The ratio between the
// detailed and interval numbers is the paper's headline speedup.

func benchModel(b *testing.B, model multicore.Model, cores int) {
	p := workload.SPECByName("gcc")
	b.ReportAllocs()
	var insts int64
	for i := 0; i < b.N; i++ {
		streams := make([]trace.Stream, cores)
		for c := 0; c < cores; c++ {
			streams[c] = trace.NewLimit(workload.New(p, c, cores, 42), 20_000)
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(cores),
			Model:   model,
		}, streams)
		insts += int64(res.TotalRetired)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "simMIPS")
}

func BenchmarkDetailedSingleCore(b *testing.B) { benchModel(b, multicore.Detailed, 1) }
func BenchmarkIntervalSingleCore(b *testing.B) { benchModel(b, multicore.Interval, 1) }
func BenchmarkOneIPCSingleCore(b *testing.B)   { benchModel(b, multicore.OneIPC, 1) }
func BenchmarkDetailedQuadCore(b *testing.B)   { benchModel(b, multicore.Detailed, 4) }
func BenchmarkIntervalQuadCore(b *testing.B)   { benchModel(b, multicore.Interval, 4) }

// Micro-benchmarks on the hot paths.

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(config.Default(1).Mem.L1D)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&1023]
		if !c.Access(a, false) {
			c.Fill(a, false)
		}
	}
}

func BenchmarkBranchPredict(b *testing.B) {
	u := branch.NewUnit(config.Default(1).Branch)
	in := isa.Inst{Class: isa.Branch, PC: 0x400100, Taken: true, Target: 0x400000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Taken = i&7 != 0
		u.Predict(&in)
	}
}

func BenchmarkMemHierData(b *testing.B) {
	h := memhier.New(1, config.Default(1).Mem, memhier.Perfect{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(0, uint64(i%4096)*64, false, int64(i))
	}
}

// BenchmarkIntervalSteadyState measures the steady-state per-instruction
// cost of the interval core with real miss-event simulators, after the
// window and the hand-off ring are primed. It must report 0 allocs/op: the
// core's steady state is allocation-free (run with -benchmem).
func BenchmarkIntervalSteadyState(b *testing.B) {
	m := config.Default(1)
	p := workload.SPECByName("gcc")
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	c := core.New(0, m.Core, core.Options{}, bp, mem, workload.New(p, 0, 1, 42), sim.NullSyncer{})
	var now int64
	for c.Retired() < 10_000 {
		c.Step(now)
		now = c.NextActive(now + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now = c.NextActive(now + 1)
	}
}

// BenchmarkIntervalReplay measures the timing model over a pre-recorded
// trace — the trace-driven hand-off of the paper's framework, with the
// functional simulator out of the timed loop (batched bulk copies feed the
// window).
func BenchmarkIntervalReplay(b *testing.B) {
	p := workload.SPECByName("gcc")
	tr := trace.Record(workload.New(p, 0, 1, 42), 200_000)
	b.ReportAllocs()
	var insts int64
	for i := 0; i < b.N; i++ {
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(1),
			Model:   multicore.Interval,
		}, []trace.Stream{trace.NewSliceStream(tr)})
		insts += int64(res.TotalRetired)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "simMIPS")
}

// BenchmarkIntervalDispatch measures the per-instruction cost of the
// analytical core model alone (perfect structures).
func BenchmarkIntervalDispatch(b *testing.B) {
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	p := workload.SPECByName("mesa")
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := core.New(0, m.Core, core.Options{}, bp, mem, gen, sim.NullSyncer{})
	b.ResetTimer()
	var now int64
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now++
	}
}

// BenchmarkDetailedCycle measures the per-instruction cost of the detailed
// model alone (perfect structures) — the 28K-lines-of-C++ stand-in.
func BenchmarkDetailedCycle(b *testing.B) {
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	p := workload.SPECByName("mesa")
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := ooo.New(0, m.Core, bp, mem, gen, sim.NullSyncer{}, math.MaxInt64)
	b.ResetTimer()
	var now int64
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now++
	}
}

// benchWarmedReplay times one core model with the functional simulator out
// of the timed loop: a recorded trace replayed, every pass, through a
// hierarchy and predictor freshly warmed (untimed) with the 200 k
// instructions that precede it in the stream, so each pass sees the miss
// rates of a run's steady state. run builds the core over what it is handed
// and steps it to the end of the trace. One op is one instruction;
// allocs/op must round to 0 (a pass allocates only in the constructor).
func benchWarmedReplay(b *testing.B, name string, run func(m config.Machine, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream)) {
	m := config.Default(1)
	gen := workload.New(workload.SPECByName(name), 0, 1, 42)
	warm := trace.Record(gen, 200_000)
	tr := trace.Record(gen, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= len(tr) {
		b.StopTimer()
		mem := memhier.New(1, m.Mem, memhier.Perfect{})
		bp := branch.NewUnit(m.Branch)
		multicore.Warmup(mem, []*branch.Unit{bp}, []trace.Stream{trace.NewSliceStream(warm)}, len(warm))
		src := trace.NewSliceStream(tr[:min(left, len(tr))])
		b.StartTimer()
		run(m, bp, mem, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
}

// BenchmarkDetailedCoreStep measures the detailed model alone (see
// benchWarmedReplay), stepped as the driver steps it: only in the cycles
// its NextActive names. The sub-benchmarks differ in what the core waits
// for: gcc issues nearly every cycle, mcf and art sit behind DRAM for most
// of theirs, swim streams.
func BenchmarkDetailedCoreStep(b *testing.B) {
	for _, name := range []string{"gcc", "mcf", "swim", "art"} {
		b.Run(name, func(b *testing.B) {
			benchWarmedReplay(b, name, func(m config.Machine, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream) {
				c := ooo.New(0, m.Core, bp, mem, src, sim.NullSyncer{}, math.MaxInt64)
				for now := int64(0); !c.Done(); now = c.NextActive(now + 1) {
					c.Step(now)
				}
			})
		})
	}
}

// BenchmarkOverlapScan measures the interval model alone (see
// benchWarmedReplay) on the two profiles whose long-latency loads arrive
// back to back under a full 256-entry window, where the second-order
// overlap scan is the largest part of the core's own time.
func BenchmarkOverlapScan(b *testing.B) {
	for _, name := range []string{"mcf", "art"} {
		b.Run(name, func(b *testing.B) {
			benchWarmedReplay(b, name, func(m config.Machine, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream) {
				c := core.New(0, m.Core, core.Options{}, bp, mem, src, sim.NullSyncer{})
				for now := int64(0); !c.Done(); now = c.NextActive(now + 1) {
					c.Step(now)
				}
			})
		})
	}
}

// BenchmarkDriverSleepyCores measures the multicore stepping loop where it
// has the least to do per iteration: four copies of mcf, each asleep behind
// a miss penalty for most of the global cycles the others are simulated in.
// The streams are recorded, warm-up is untimed (Result.Wall covers the
// stepping loop only); one op is one instruction of one core.
func BenchmarkDriverSleepyCores(b *testing.B) {
	const cores, insts = 4, 100_000
	p := workload.SPECByName("mcf")
	var warm, recorded [cores][]isa.Inst
	for i := range recorded {
		warm[i] = trace.Record(workload.New(p, i, cores, 1042), 200_000)
		recorded[i] = trace.Record(workload.New(p, i, cores, 42), insts)
	}
	var wall time.Duration
	var retired uint64
	b.ReportAllocs()
	for left := b.N; left > 0; left -= cores * insts {
		var streams, warmup [cores]trace.Stream
		for i := range streams {
			streams[i] = trace.NewSliceStream(recorded[i][:min(insts, (left+cores-1)/cores)])
			warmup[i] = trace.NewSliceStream(warm[i])
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(cores), Model: multicore.Interval,
			WarmupInsts: len(warm[0]), Warmup: warmup[:],
		}, streams[:])
		wall += res.Wall
		retired += res.TotalRetired
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(retired), "ns/inst")
}

// BenchmarkWorkloadGen measures the functional simulator alone, through
// the 4096-slot NextBatch every product consumer pulls. One op is one
// instruction. The sub-benchmarks take different draw paths: integer
// (gcc), pointer-chase (mcf), strided (swim) and FP-chain (art); the
// /functional ones time the operand-free emission of the warm-up twins.
func BenchmarkWorkloadGen(b *testing.B) {
	for _, name := range []string{"gcc", "mcf", "swim", "art"} {
		for _, functional := range []bool{false, true} {
			sub := name
			if functional {
				sub += "/functional"
			}
			b.Run(sub, func(b *testing.B) {
				g := workload.New(workload.SPECByName(name), 0, 1, 42)
				if functional {
					g.Functional()
				}
				buf := make([]isa.Inst, 4096)
				b.ReportAllocs()
				b.ResetTimer()
				for left := b.N; left > 0; {
					k := g.NextBatch(buf[:min(left, len(buf))])
					if k == 0 {
						b.Fatal("stream ended")
					}
					left -= k
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
			})
		}
	}
}

// BenchmarkPipelineHandoff measures what trace.Pipeline itself costs its
// reader: a recorded stream pulled in the 1024-slot batches the cores pull,
// directly and through a pipeline whose producer has nothing to do but
// copy. One op is one instruction; the difference between the two is the
// hand-off — the second copy and a channel round trip per 4096-instruction
// chunk. A run is 200k instructions and starts its own pipeline, as a
// scenario does; the rings come from the pool, so bytes per op stay at 0.
func BenchmarkPipelineHandoff(b *testing.B) {
	const insts = 200_000
	recorded := trace.Record(workload.New(workload.SPECByName("gcc"), 0, 1, 42), insts)
	for _, mode := range []string{"direct", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			buf := make([]isa.Inst, 1024)
			run := func(n int) {
				var src trace.Stream = trace.NewSliceStream(recorded)
				if mode == "pipelined" {
					p, out := trace.StartPipeline([]trace.Stream{src}, false)
					defer p.Close()
					src = out[0]
				}
				for n > 0 {
					k := src.NextBatch(buf[:min(n, len(buf))])
					if k == 0 {
						b.Fatal("stream ended")
					}
					n -= k
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= insts {
				run(min(left, insts))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
		})
	}
}

// BenchmarkWarmup measures functional warm-up — the largest line of a
// sweep point — in ns per warmed instruction: 200k instructions into a
// cold hierarchy and predictor, as every scenario pays them, with and
// without the stride prefetcher; once pulling from the operand-free
// warm-up twin the scenarios use and once over a recorded full stream,
// which leaves the memory path and the predictor alone.
func BenchmarkWarmup(b *testing.B) {
	const insts = 200_000
	for _, name := range []string{"gcc", "mcf"} {
		for _, prefetch := range []string{"none", "stride"} {
			for _, source := range []string{"gen", "trace"} {
				b.Run(name+"/"+prefetch+"/"+source, func(b *testing.B) {
					m := config.Default(1)
					m.Mem.Prefetch = prefetch
					m, err := m.Resolve()
					if err != nil {
						b.Fatal(err)
					}
					p := workload.SPECByName(name)
					recorded := trace.Record(workload.New(p, 0, 1, 1042), insts)
					b.ReportAllocs()
					b.ResetTimer()
					for left := b.N; left > 0; left -= insts {
						b.StopTimer()
						mem := memhier.New(1, m.Mem, memhier.Perfect{})
						bps := []*branch.Unit{branch.NewUnit(m.Branch)}
						var src trace.Stream = trace.NewSliceStream(recorded)
						if source == "gen" {
							src = workload.New(p, 0, 1, 1042).Functional()
						}
						b.StartTimer()
						multicore.Warmup(mem, bps, []trace.Stream{src}, min(left, insts))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
				})
			}
		}
	}
}

// BenchmarkHierarchyData measures the memory path alone in its warmed
// steady state, called the way the cores call it: Data for every memory
// instruction, Inst for the first instruction on each 64-byte line, under
// a clock that advances. One op is one instruction of the recorded stream
// (one per core and round on canneal, whose four threads share lines
// through the coherence protocol).
func BenchmarkHierarchyData(b *testing.B) {
	const insts = 200_000
	for _, name := range []string{"gcc", "mcf", "canneal"} {
		b.Run(name, func(b *testing.B) {
			cores, p := 1, workload.SPECByName(name)
			if p == nil {
				cores, p = 4, workload.PARSECByName(name)
			}
			q := *p
			q.TotalWork = 0 // unbounded: every thread records insts instructions
			mem := memhier.New(cores, config.Default(cores).Mem, memhier.Perfect{})
			recorded := make([][]isa.Inst, cores)
			lastLine := make([]uint64, cores)
			for c := range recorded {
				recorded[c] = trace.Record(workload.New(&q, c, cores, 42), insts)
			}
			now := int64(0)
			replay := func(n int) {
				for i := 0; n > 0; i = (i + 1) % insts {
					for c := 0; c < cores && n > 0; c++ {
						in := &recorded[c][i]
						n--
						now++
						if in.Class.IsSync() {
							continue
						}
						if line := in.PC >> 6; line != lastLine[c] {
							lastLine[c] = line
							mem.Inst(c, in.PC, now)
						}
						if in.Class.IsMem() {
							mem.Data(c, in.Addr, in.Class == isa.Store, now)
						}
					}
				}
			}
			replay(cores * insts)
			b.ReportAllocs()
			b.ResetTimer()
			replay(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
		})
	}
}

// BenchmarkAblationPrefetch compares a streaming workload with and without
// the next-line prefetcher (a design-space knob beyond the Table 1
// baseline); the report metric is the IPC gained.
func BenchmarkAblationPrefetch(b *testing.B) {
	p := workload.SPECByName("swim")
	run := func(prefetch bool) float64 {
		m := config.Default(1)
		if prefetch {
			m.Mem.Prefetch = "nextline"
			m.Mem.PrefetchDegree = 2
		}
		streams := []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), 20_000)}
		warm := []trace.Stream{workload.New(p, 0, 1, 1042)}
		res := multicore.Run(multicore.RunConfig{
			Machine: m, Model: multicore.Interval,
			WarmupInsts: 200_000, Warmup: warm,
		}, streams)
		return res.Cores[0].IPC
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		base := run(false)
		pf := run(true)
		if base > 0 {
			gain = pf / base
		}
	}
	b.ReportMetric(gain, "ipcGain")
}

// BenchmarkAblationMESI compares MOESI against MESI on a sharing-heavy
// multi-threaded workload; the metric is the relative execution-time cost
// of dropping the Owned state (extra writebacks on dirty sharing).
func BenchmarkAblationMESI(b *testing.B) {
	p := workload.PARSECByName("canneal")
	run := func(protocol string) int64 {
		q := *p
		q.TotalWork = 100_000
		m := config.Default(4)
		m.Mem.Coherence = protocol
		streams := make([]trace.Stream, 4)
		for i := range streams {
			streams[i] = workload.New(&q, i, 4, 42)
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: m, Model: multicore.Interval, MaxCycles: 100_000_000,
		}, streams)
		return res.Cycles
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		moesi := run("moesi")
		mesi := run("mesi")
		if moesi > 0 {
			ratio = float64(mesi) / float64(moesi)
		}
	}
	b.ReportMetric(ratio, "mesiSlowdown")
}
