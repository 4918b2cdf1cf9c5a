package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/statsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The estimate's work is bounded by these constants, not by the run's
// instruction budget: that bound is the whole point. A 200M-instruction
// scenario costs the same ~1.1M generated/simulated instructions as a 1M
// one, which is what makes the tier answer in well under a second while
// the full run takes tens of seconds.
const (
	// statProfileWarm functionally warms the profiler's internal caches
	// before counting, so the profiled locality is steady-state. Sized
	// like a real run's warmup — a short warm leaves the profiled window
	// colder than the stream the estimate stands in for.
	statProfileWarm = 200_000
	// statProfileWindow caps the profiled window of the real stream.
	statProfileWindow = 400_000
	// statCloneLen caps the timed synthetic clone. Long clones matter:
	// the clone starts from near-cold structures, and a short clone's
	// transient dominates its mean CPI (100k was nearly 2x too
	// pessimistic on warm long-running benchmarks; 400k still carried
	// enough transient to put gcc 60% off a warm 1M-instruction run —
	// 800k halves that to ~30%).
	statCloneLen = 800_000
	// statWarmCloneLen sizes the clone's warmup twin. Deliberately much
	// shorter than the clone: the twin shares the clone's concentrated
	// synthetic working set, so a long warm pre-fills caches the real
	// stream would keep missing (a clone-length twin made mcf ~6x too
	// optimistic).
	statWarmCloneLen = 100_000
	// statSeedOffset separates the clone's seed space from the
	// workload's, so the clone never accidentally replays the generator.
	statSeedOffset = 0x57a7
)

// Cost is the estimate's work in simulated-instruction-equivalents:
// profile run-in and window plus clone and its warm-up twin, whatever the
// budget.
const Cost = statProfileWarm + statProfileWindow + statCloneLen + statWarmCloneLen

// Statistical estimates a run of p that Supports accepts, with the given
// seed, warm-up and measured budget, on machine under model: profile,
// clone, time the clone on the multicore driver, and extrapolate the
// clone's IPC to the full budget. Cancelling ctx interrupts the clone's
// run and returns ctx's error with its partial result.
func Statistical(ctx context.Context, p *workload.Profile, seed int64, warmup, budget int, machine config.Machine, model multicore.Model) (multicore.Result, error) {
	start := time.Now()
	prof := profile(p, seed, warmup, budget)
	if prof.Total == 0 {
		return multicore.Result{}, fmt.Errorf("engine: statistical: empty profile for %q", p.Name)
	}

	// Deterministic for (profile, length, seed): the clone and its
	// warmup twin are pure functions of the inputs.
	seed += statSeedOffset
	clone := statsim.NewClone(prof, statCloneLen, seed)
	warmTwin := statsim.NewClone(prof, statWarmCloneLen, seed+1)
	res := multicore.Run(multicore.RunConfig{
		Machine:     machine,
		Model:       model,
		WarmupInsts: statWarmCloneLen,
		Warmup:      []trace.Stream{warmTwin},
		Interrupt:   ctx.Done(),
	}, []trace.Stream{clone})
	if res.Interrupted {
		return res, ctx.Err()
	}
	if res.Cycles <= 0 || res.TotalRetired == 0 {
		return multicore.Result{}, fmt.Errorf("engine: statistical: clone of %q timed nothing", p.Name)
	}

	// Extrapolate: the clone's IPC stands in for the whole budget's.
	ipc := float64(res.TotalRetired) / float64(res.Cycles)
	cycles := int64(float64(budget)/ipc + 0.5)
	return multicore.Result{
		Model:        res.Model,
		Cycles:       cycles,
		Cores:        []multicore.CoreResult{{Retired: uint64(budget), Finish: cycles, IPC: ipc}},
		TotalRetired: uint64(budget),
		Wall:         time.Since(start),
	}, nil
}

// profile profiles a fixed window of the real stream (thread 0 of 1, the
// run's own seed), warmed so locality is steady-state. The window is NOT
// scaled down to small budgets: an underfed profile misrepresents locality
// badly (several-fold IPC error), and the fixed window is what makes the
// cost budget-independent anyway.
func profile(p *workload.Profile, seed int64, warmup, budget int) *statsim.Profile {
	src, runIn := profileStream(p, seed, warmup, budget)
	return statsim.CollectWarm(src, runIn, statProfileWindow)
}

// statStrata is the stratified-profiling slice count: the profile
// window is split into this many equal slices spread evenly across the
// scenario's measured span.
const statStrata = 4

// profileStream positions the profiler over the run's measured region and
// returns the functional run-in it leads with. When the stream can skip
// (format v3) and the measured span is longer than the window, the window
// is stratified across the span: a run-in of statProfileWarm instructions,
// cut to the warm-up, ending at the span start, then statStrata slices at
// even offsets through [warmup, warmup+budget), so a phase-heterogeneous
// stream contributes every phase the estimate stands in for — a contiguous
// prefix window systematically over-weights the early phases. Cost is
// unchanged (the same instructions are profiled; skips are O(1)). Anything
// else (non-skippable streams, short spans) degrades to the plain
// sequential stream behind a full run-in.
func profileStream(p *workload.Profile, seed int64, warmup, budget int) (trace.Stream, int) {
	g := workload.New(p, 0, 1, seed)
	if !g.Skippable() || budget <= statProfileWindow {
		return g, statProfileWarm
	}
	wstart := uint64(warmup)
	warm := min(uint64(statProfileWarm), wstart)
	if err := g.SkipTo(wstart - warm); err != nil {
		return workload.New(p, 0, 1, seed), statProfileWarm
	}
	per := uint64(statProfileWindow / statStrata)
	stride := uint64(budget) / statStrata
	st := &stratified{g: g, next: warm + per}
	for i := uint64(1); i < statStrata; i++ {
		st.starts = append(st.starts, wstart+i*stride)
	}
	st.per = per
	return st, int(warm)
}

// stratified yields its generator's stream until the current slice is
// exhausted, then skips the generator to the next stratum start. The
// initial warmup run-in is folded into the first slice's budget by the
// constructor.
type stratified struct {
	g      *workload.Generator
	starts []uint64 // remaining stratum start positions
	per    uint64   // instructions per stratum
	next   uint64   // instructions to yield before the next skip
	taken  uint64
}

// NextBatch implements trace.Stream: the rest of the current slice,
// straight from the generator's batch emitter.
func (s *stratified) NextBatch(buf []isa.Inst) int {
	if s.taken == s.next {
		if len(s.starts) == 0 {
			return 0
		}
		if err := s.g.SkipTo(s.starts[0]); err != nil {
			return 0
		}
		s.starts = s.starts[1:]
		s.next += s.per
	}
	if left := s.next - s.taken; uint64(len(buf)) > left {
		buf = buf[:left]
	}
	n := s.g.NextBatch(buf)
	s.taken += uint64(n)
	return n
}
