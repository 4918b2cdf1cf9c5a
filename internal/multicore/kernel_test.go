package multicore

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// kernelInsts is the length of every kernel stream: long enough that the
// cold start (the code loop's four I-cache lines) costs no kernel more than
// a few per cent of its cycles.
const kernelInsts = 200_000

// kernel builds a stream of n instructions from a pattern over a 256-byte
// code loop: body(i) fills in instruction i's class, operands and
// address. There are no branches, so neither the predictor nor the
// front end's redirects enter the IPC.
func kernel(n int, body func(i int, in *isa.Inst)) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		in := &out[i]
		*in = isa.Inst{PC: 0x40_0000 + uint64(i%64)*4, Class: isa.IntALU,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: uint8(i % 32)}
		body(i, in)
	}
	return out
}

// missAddr is the address of the k-th missing load: 8 KiB apart, a page of
// the default D-TLB, so every one misses the L1D, the L2 and the D-TLB.
func missAddr(k int) uint64 { return 0x1000_0000 + uint64(k)<<13 }

// missLatency is the first-order model's load-to-use latency of a load
// that misses the D-TLB, the L1D and the L2 on an idle one-core machine:
// the L1 pipeline, the D-TLB walk, the bus hop to the L2, the L2 lookup,
// the DRAM access and the line's transfer over the memory bus.
func missLatency(m config.Machine) float64 {
	return float64(m.Core.LatLoad + m.Mem.DTLB.MissLatency + m.Mem.L2BusLatency +
		m.Mem.L2.Latency + m.Mem.DRAMLatency + m.Mem.L2.LineSize/m.Mem.BusBytes)
}

// TestFirstOrderKernels holds both core models to the first-order
// superscalar model (Karkhanis & Smith, "A First-Order Superscalar
// Processor Model", ISCA 2004) on kernels whose IPC it gives in closed
// form, so a defect the two models share cannot hide behind their
// agreement with each other. Each kernel runs alone on one core of the
// default machine, cold, for kernelInsts instructions, and its IPC must lie
// within band (a fraction) of the closed form. The closed forms:
//
//   - independent ALU ops on a W-wide machine: the width, W;
//   - a chain of dependent ALU ops: one per ALU latency;
//   - an independent miss every 8th instruction under a ROB of R: the ROB
//     fills behind each miss and every miss in it overlaps, so R
//     instructions retire per miss latency, R / Lmem;
//   - a pointer chase, every 8th instruction a load whose address
//     depends on the previous one's value: 8 / Lmem.
//
// Lmem is missLatency (202 cycles on the default machine). Measured at
// the change that added the test, as detailed / interval: 1.99 / 1.99,
// 3.94 / 3.94 and 7.78 / 7.78 at width 2, 4 and 8 (the cold I-cache's
// first lines cost width 8 about 3 %); 0.997 / 0.997 for the chain; 0.315
// / 0.321 at ROB 64 and 1.254 / 1.283 at ROB 256; 0.040 / 0.040 for the
// chase.
//
// Two kernels stay out because the models fail them (ROADMAP items 5 and
// 6): an independent miss every 2nd instruction, which the detailed core
// overlaps beyond MaxOutstandingMisses, and FP chains with a miss every
// 16th instruction, whose interval IPC falls as the core gets wider.
func TestFirstOrderKernels(t *testing.T) {
	type kernelCase struct {
		name   string
		mutate func(c *config.Core)
		body   func(i int, in *isa.Inst)
		ipc    func(m config.Machine) float64
		band   float64
	}
	var cases []kernelCase
	for _, w := range []int{2, 4, 8} {
		cases = append(cases, kernelCase{
			name: fmt.Sprintf("independent-alu-width-%d", w),
			mutate: func(c *config.Core) {
				c.DecodeWidth, c.IssueWidth, c.FetchWidth, c.IntALUs = w, w, w, w
			},
			body: func(int, *isa.Inst) {},
			ipc:  func(m config.Machine) float64 { return float64(m.Core.DecodeWidth) },
			band: 0.04,
		})
	}
	cases = append(cases, kernelCase{
		name: "dependent-alu-chain",
		body: func(i int, in *isa.Inst) { in.Src1, in.Dst = 1, 1 },
		ipc:  func(m config.Machine) float64 { return 1 / float64(m.Core.LatIntALU) },
		band: 0.01,
	})
	for _, rob := range []int{64, 256} {
		cases = append(cases, kernelCase{
			name:   fmt.Sprintf("independent-miss-every-8th-rob-%d", rob),
			mutate: func(c *config.Core) { c.ROBSize = rob },
			body: func(i int, in *isa.Inst) {
				if i%8 == 0 {
					in.Class, in.Addr = isa.Load, missAddr(i/8)
				}
			},
			ipc:  func(m config.Machine) float64 { return float64(m.Core.ROBSize) / missLatency(m) },
			band: 0.03,
		})
	}
	cases = append(cases, kernelCase{
		name: "pointer-chase",
		body: func(i int, in *isa.Inst) {
			if i%8 == 0 {
				in.Class, in.Addr = isa.Load, missAddr(i/8)
				in.Src1, in.Dst = 40, 40
			}
		},
		ipc:  func(m config.Machine) float64 { return 8 / missLatency(m) },
		band: 0.02,
	})

	for _, kc := range cases {
		m := config.Default(1)
		if kc.mutate != nil {
			kc.mutate(&m.Core)
		}
		m, err := m.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		insts := kernel(kernelInsts, kc.body)
		want := kc.ipc(m)
		for _, model := range []Model{Detailed, Interval} {
			res := Run(RunConfig{Machine: m, Model: model}, []trace.Stream{trace.NewSliceStream(insts)})
			if res.TimedOut || res.TotalRetired != kernelInsts {
				t.Fatalf("%s %v: retired %d of %d (timed out %t)", kc.name, model, res.TotalRetired, kernelInsts, res.TimedOut)
			}
			got := res.Cores[0].IPC
			t.Logf("%s %v: IPC %.4f, first-order %.4f", kc.name, model, got, want)
			if got < want*(1-kc.band) || got > want*(1+kc.band) {
				t.Errorf("%s %v: IPC %.4f, first-order model %.4f ± %.0f %%", kc.name, model, got, want, 100*kc.band)
			}
		}
	}
}
