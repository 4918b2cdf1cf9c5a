package multicore

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/ooo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDiagnoseDetailed prints where cycles go for a cache-friendly profile;
// a debugging aid kept as a sanity log.
func TestDiagnoseDetailed(t *testing.T) {
	p := workload.SPECByName("mesa")
	gen := workload.New(p, 0, 1, 42)
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	warm := trace.NewBuffered(workload.New(p, 0, 1, 777), 4096)
	for k := 0; k < 1_000_000; k++ {
		in, ok := warm.Next()
		if !ok {
			break
		}
		mem.Inst(0, in.PC, 0)
		if in.Class.IsBranch() {
			bp.Predict(&in)
		}
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
	}
	mem.ResetStats()
	bp.ResetStats()
	c := ooo.New(0, m.Core, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{}, math.MaxInt64)
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
	}
	t.Logf("IPC=%.3f cycles=%d dispatchStalls=%d", c.IPC(), c.Cycles, c.DispatchStall)
	t.Logf("bp: lookups=%d misp=%d rate=%.4f", bp.Lookups, bp.Mispredictions, bp.MispredictRate())
	t.Logf("L1I: miss rate=%.4f (m=%d h=%d)", mem.L1I(0).MissRate(), mem.L1I(0).Misses, mem.L1I(0).Hits)
	t.Logf("L1D: miss rate=%.4f (m=%d h=%d)", mem.L1D(0).MissRate(), mem.L1D(0).Misses, mem.L1D(0).Hits)
	if l2 := mem.L2(); l2 != nil {
		t.Logf("L2: miss rate=%.4f (m=%d h=%d)", l2.MissRate(), l2.Misses, l2.Hits)
	}
}

// TestDiagnosePerfect compares the two models with all miss sources
// disabled: any gap is pure dispatch-rate modeling error.
func TestDiagnosePerfect(t *testing.T) {
	for _, name := range []string{"galgel", "wupwise", "eon"} {
		p := workload.SPECByName(name)
		m := config.Default(1)
		m.Branch.Kind = "perfect"
		perf := memhier.Perfect{ISide: true, DSide: true}
		var ipcs [2]float64
		for mi, model := range []Model{Detailed, Interval} {
			gen := workload.New(p, 0, 1, 42)
			cfg := RunConfig{Machine: m, Model: model, Perfect: perf}
			r := Run(cfg, []trace.Stream{trace.NewLimit(gen, 50_000)})
			ipcs[mi] = r.Cores[0].IPC
		}
		t.Logf("%s all-perfect: detailed=%.3f interval=%.3f", name, ipcs[0], ipcs[1])
	}
}

// TestDiagnoseComponents isolates branch-only and Dside-only error.
func TestDiagnoseComponents(t *testing.T) {
	for _, name := range []string{"galgel", "wupwise"} {
		p := workload.SPECByName(name)
		for _, exp := range []struct {
			label string
			perf  memhier.Perfect
			bp    string
		}{
			{"branch-only", memhier.Perfect{ISide: true, DSide: true}, "local"},
			{"dside-only", memhier.Perfect{ISide: true}, "perfect"},
			{"iside-only", memhier.Perfect{DSide: true}, "perfect"},
		} {
			m := config.Default(1)
			m.Branch.Kind = exp.bp
			var ipcs [2]float64
			for mi, model := range []Model{Detailed, Interval} {
				gen := workload.New(p, 0, 1, 42)
				warm := workload.New(p, 0, 1, 777)
				cfg := RunConfig{Machine: m, Model: model, Perfect: exp.perf,
					WarmupInsts: 1_000_000, Warmup: []trace.Stream{warm}}
				r := Run(cfg, []trace.Stream{trace.NewLimit(gen, 50_000)})
				ipcs[mi] = r.Cores[0].IPC
			}
			t.Logf("%s %s: detailed=%.3f interval=%.3f", name, exp.label, ipcs[0], ipcs[1])
		}
	}
}

// TestDiagnoseMcf digs into the memory-bound outlier.
func TestDiagnoseMcf(t *testing.T) {
	p := workload.SPECByName("mcf")
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	warm := trace.NewBuffered(workload.New(p, 0, 1, 777), 4096)
	for k := 0; k < 1_000_000; k++ {
		in, ok := warm.Next()
		if !ok {
			break
		}
		mem.Inst(0, in.PC, 0)
		if in.Class.IsBranch() {
			bp.Predict(&in)
		}
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
	}
	mem.ResetStats()
	bp.ResetStats()
	gen := workload.New(p, 0, 1, 42)
	c := core.New(0, m.Core, core.Options{}, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{})
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
	}
	t.Logf("interval: IPC=%.3f events: I=%d br=%d LL=%d ser=%d hidden=%d",
		c.IPC(), c.ICacheEvents, c.BranchEvents, c.LongLoadEvents, c.SerializeEvents, c.OverlapHidden)
	t.Logf("L1D miss=%d dram req=%d dramStall=%d longLat=%d",
		mem.L1D(0).Misses, mem.DRAM().Stats().Requests, mem.DRAM().Stats().StallTotal, mem.Stats().LongLatency)
}

// TestDiagnoseMcfDetailed compares per-model event accounting for mcf.
func TestDiagnoseMcfDetailed(t *testing.T) {
	p := workload.SPECByName("mcf")
	m := config.Default(1)
	for _, model := range []Model{Detailed, Interval} {
		gen := workload.New(p, 0, 1, 42)
		warm := workload.New(p, 0, 1, 777)
		cfg := RunConfig{Machine: m, Model: model,
			WarmupInsts: 1_000_000, Warmup: []trace.Stream{warm}}
		r := Run(cfg, []trace.Stream{trace.NewLimit(gen, 50_000)})
		t.Logf("%v: IPC=%.3f cycles=%d", model, r.Cores[0].IPC, r.Cycles)
	}
	// Rebuild hierarchy to measure miss composition.
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	warm := trace.NewBuffered(workload.New(p, 0, 1, 777), 4096)
	for k := 0; k < 1_000_000; k++ {
		in, ok := warm.Next()
		if !ok {
			break
		}
		mem.Inst(0, in.PC, 0)
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
	}
	mem.ResetStats()
	gen := trace.NewBuffered(workload.New(p, 0, 1, 42), 4096)
	var nLong, nL2, nHit, nTLB int
	var sumLat int64
	for k := 0; k < 50_000; k++ {
		in, ok := gen.Next()
		if !ok {
			break
		}
		if !in.Class.IsMem() {
			continue
		}
		res := mem.Data(0, in.Addr, in.Class == isa.Store, int64(k))
		switch {
		case res.LongLatency():
			nLong++
			sumLat += res.Latency
		case res.Kind == memhier.L2Hit:
			nL2++
		default:
			nHit++
		}
		if res.TLBMiss {
			nTLB++
		}
	}
	t.Logf("functional: long=%d (avg lat %.0f) l2=%d hit=%d tlbmiss=%d",
		nLong, float64(sumLat)/float64(max(nLong, 1)), nL2, nHit, nTLB)
}

// TestDiagnoseSwimIQ tests whether the detailed model is issue-queue bound
// for deep-chain FP codes.
func TestDiagnoseSwimIQ(t *testing.T) {
	p := workload.SPECByName("swim")
	for _, iq := range []int{128, 256, 512} {
		m := config.Default(1)
		m.Branch.Kind = "perfect"
		m.Core.IssueQueueSize = iq
		gen := workload.New(p, 0, 1, 42)
		cfg := RunConfig{Machine: m, Model: Detailed,
			Perfect: memhier.Perfect{ISide: true, DSide: true}}
		r := Run(cfg, []trace.Stream{trace.NewLimit(gen, 50_000)})
		t.Logf("swim all-perfect detailed IQ=%d: IPC=%.3f", iq, r.Cores[0].IPC)
	}
}

// TestDiagnoseMultiprog compares contention effects for 8 copies of gcc.
func TestDiagnoseMultiprog(t *testing.T) {
	p := workload.SPECByName("gcc")
	for _, model := range []Model{Detailed, Interval} {
		for _, n := range []int{1, 8} {
			m := config.Default(n)
			mem := memhier.New(n, m.Mem, memhier.Perfect{})
			coord := NewCoordinator(n)
			bps := make([]*branch.Unit, n)
			var streams []trace.Stream
			for i := 0; i < n; i++ {
				bps[i] = branch.NewUnit(m.Branch)
				streams = append(streams, trace.NewLimit(workload.New(p, i, n, 42), 50_000))
			}
			var warms []trace.Stream
			for i := 0; i < n; i++ {
				warms = append(warms, workload.New(p, i, n, 777))
			}
			warmup(mem, bps, warms, 600_000, nil)
			cores := make([]sim.Core, n)
			for i := 0; i < n; i++ {
				switch model {
				case Detailed:
					cores[i] = ooo.New(i, m.Core, bps[i], mem, streams[i], coord, math.MaxInt64)
				case Interval:
					cores[i] = core.New(i, m.Core, core.Options{}, bps[i], mem, streams[i], coord)
				}
			}
			var now int64
			for {
				done := true
				for _, c := range cores {
					if !c.Done() {
						c.Step(now)
						done = false
					}
				}
				if done {
					break
				}
				now++
			}
			var ipcList []string
			for _, c := range cores {
				ipcList = append(ipcList, fmt.Sprintf("%.2f", c.(interface{ IPC() float64 }).IPC()))
			}
			t.Logf("%v n=%d: IPCs=%v dram=%d dramStall=%d L2miss=%.3f longLat=%d",
				model, n, ipcList, mem.DRAM().Stats().Requests, mem.DRAM().Stats().StallTotal,
				mem.L2().MissRate(), mem.Stats().LongLatency)
		}
	}
}

// TestDiagnoseGcc8 isolates the contention source for 8 copies of gcc.
func TestDiagnoseGcc8(t *testing.T) {
	p := workload.SPECByName("gcc")
	for _, exp := range []struct {
		label string
		perf  memhier.Perfect
	}{
		{"all-real", memhier.Perfect{}},
		{"perfect-I", memhier.Perfect{ISide: true}},
		{"perfect-D", memhier.Perfect{DSide: true}},
	} {
		for _, model := range []Model{Detailed, Interval} {
			sum := func(n int) float64 {
				streams := make([]trace.Stream, n)
				warm := make([]trace.Stream, n)
				for i := 0; i < n; i++ {
					streams[i] = trace.NewLimit(workload.New(p, i, n, 42), 50_000)
					warm[i] = workload.New(p, i, n, 1042)
				}
				r := Run(RunConfig{Machine: config.Default(n), Model: model,
					Perfect: exp.perf, WarmupInsts: 600_000, Warmup: warm}, streams)
				tot := 0.0
				for _, c := range r.Cores {
					tot += c.IPC
				}
				return tot
			}
			alone, eight := sum(1), sum(8)
			t.Logf("%-9s %v: alone=%.3f sum8=%.3f STP=%.2f", exp.label, model, alone, eight, eight/alone)
		}
	}
}
