// Package sampling implements periodic sampled simulation on top of the
// core timing models — the SMARTS-style methodology the paper's related
// work discusses and calls *orthogonal* to interval simulation: sampling
// reduces how many instructions are timed, interval simulation reduces the
// cost of timing each one. Combining them multiplies the savings, and this
// package demonstrates that combination.
//
// The instruction stream is divided into periods; in each period a
// measurement unit of U instructions is timed (by either core model) after
// W instructions of functional warming, and the remaining instructions are
// fast-forwarded through the caches and branch predictor only (functional
// warming keeps the large structures coherent with the full execution, the
// standard fix for cold-start bias).
package sampling

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/trace"
)

// Config sizes the sampling regime.
type Config struct {
	// Unit is the measurement unit length in instructions.
	Unit int
	// Period is the distance between unit starts; Period-Unit
	// instructions are fast-forwarded (with functional warming) between
	// measurements.
	Period int
	// InitialWarmup fast-forwards this many instructions before the
	// first measurement unit (large-structure warmup, as in SMARTS).
	InitialWarmup int
	// Model selects the timing model for measurement units.
	Model multicore.Model
	// Machine is the simulated hardware (single core).
	Machine config.Machine
}

// Result summarizes a sampled run.
type Result struct {
	// SampledIPC is the IPC estimate from the measurement units.
	SampledIPC float64
	// Units is the number of measurement units taken.
	Units int
	// TimedInsts and TotalInsts give the sampling ratio.
	TimedInsts uint64
	TotalInsts uint64
}

// Ratio returns the fraction of instructions that were timed.
func (r Result) Ratio() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return float64(r.TimedInsts) / float64(r.TotalInsts)
}

// counted counts the instructions that pass through it, which is how Run
// knows where in its budget it is when the stream ends early.
type counted struct {
	src trace.Stream
	n   int
}

func (c *counted) NextBatch(buf []isa.Inst) int {
	k := c.src.NextBatch(buf)
	c.n += k
	return k
}

// Run performs sampled simulation of up to total instructions from src.
// The stream is consumed once. Every timed region is a call of the
// multicore driver over one persistent machine: multicore.Warmup
// fast-forwards to the next measurement unit, multicore.Measure times the
// unit on a fresh core over the warmed structures.
func Run(cfg Config, src trace.Stream, total int) (Result, error) {
	if cfg.Unit <= 0 || cfg.Period <= 0 || cfg.Period < cfg.Unit {
		return Result{}, fmt.Errorf("sampling: invalid regime unit=%d period=%d", cfg.Unit, cfg.Period)
	}
	if cfg.Machine.Cores != 1 {
		return Result{}, fmt.Errorf("sampling: single-core only (got %d cores)", cfg.Machine.Cores)
	}

	mem := memhier.New(1, cfg.Machine.Mem, memhier.Perfect{})
	bps := []*branch.Unit{branch.NewUnit(cfg.Machine.Branch)}
	run := multicore.RunConfig{Machine: cfg.Machine, Model: cfg.Model}

	multicore.Warmup(mem, bps, []trace.Stream{src}, cfg.InitialWarmup)
	in := &counted{src: src}
	streams := []trace.Stream{in}

	var res Result
	var cycles uint64
	for in.n < total {
		// Fast-forward with functional warming until the next unit; Warmup
		// also clears the bus and DRAM occupancy its untimed accesses leave.
		ff := min(cfg.Period-cfg.Unit, total-in.n)
		// A contiguous regime (Period == Unit) has no gaps to sample
		// around: time the whole remainder on one core. Restarting the
		// pipeline at every unit boundary would charge a fill and a
		// drain per unit — a harness artifact, not machine behaviour.
		unit := cfg.Unit
		if ff == 0 {
			unit = total - in.n
		}
		start := in.n
		multicore.Warmup(mem, bps, streams, ff)
		if in.n-start < ff || in.n >= total {
			break // the stream or the budget ended in the gap
		}
		unit = min(unit, total-in.n)
		r := multicore.Measure(run, mem, bps, []trace.Stream{trace.NewLimit(in, unit)})
		res.Units += (int(r.TotalRetired) + cfg.Unit - 1) / cfg.Unit
		cycles += uint64(r.Cycles)
		res.TimedInsts += r.TotalRetired
		if r.TotalRetired < uint64(unit) {
			break // stream ended inside the unit
		}
	}
	res.TotalInsts = uint64(in.n)
	if cycles > 0 {
		res.SampledIPC = float64(res.TimedInsts) / float64(cycles)
	}
	return res, nil
}
