package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/simrun"
	"repro/internal/statsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The statistical engine's work is bounded by these constants, not by
// the scenario's instruction budget: that bound is the whole point. A
// 200M-instruction scenario costs the same ~1.1M generated/simulated
// instructions as a 1M one, which is what makes the tier answer in well
// under a second while the full run takes tens of seconds.
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

func statisticalEngine() simrun.EngineDef {
	return simrun.EngineDef{
		Name:     "statistical",
		Tier:     func(*simrun.Scenario) simrun.Tier { return simrun.TierStatistical },
		Cost:     statisticalCost,
		Supports: singleProgram,
		Run:      statisticalRun,
	}
}

// statisticalCost is budget-independent: profile window plus clone,
// both fixed.
func statisticalCost(s *simrun.Scenario) float64 {
	return float64(statProfileWarm + statProfileWindow + statCloneLen + statWarmCloneLen)
}

// statisticalRun is statistical simulation end to end: profile, clone,
// time the clone under the scenario's own core model and machine, and
// extrapolate the clone's IPC to the scenario's full budget.
func statisticalRun(ctx context.Context, s *simrun.Scenario) (simrun.Result, error) {
	start := time.Now()
	budget := s.InstBudget()

	// Profile a fixed window of the real stream (thread 0 of 1, the
	// scenario's own seed), warmed so locality is steady-state. The
	// window is NOT scaled down to small budgets: an underfed profile
	// misrepresents locality badly (several-fold IPC error), and the
	// fixed window is what makes the cost budget-independent anyway.
	// When the stream can skip (format v3) and the measured span is
	// longer than the window, the window is stratified across the span:
	// four slices at even offsets through [warmup, warmup+budget), so a
	// phase-heterogeneous stream contributes every phase the estimate
	// stands in for — a contiguous prefix window systematically
	// over-weights the early phases. Cost is unchanged (the same
	// instructions are profiled; skips are O(1)).
	prof := statsim.CollectWarm(profileStream(s, budget), statProfileWarm, statProfileWindow)
	if prof.Total == 0 {
		return simrun.Result{}, fmt.Errorf("engine: statistical: empty profile for %q", s.Name())
	}

	// Deterministic for (profile, length, seed): the clone and its
	// warmup twin are pure functions of the scenario.
	seed := s.SeedValue() + statSeedOffset
	clone := statsim.NewClone(prof, statCloneLen, seed)
	warmTwin := statsim.NewClone(prof, statWarmCloneLen, seed+1)

	machine, err := s.ResolvedMachine()
	if err != nil {
		return simrun.Result{}, err
	}
	cloneSpec := simrun.Spec{
		Label:   s.Name() + " (statistical clone)",
		Model:   s.ModelName(),
		Machine: &machine,
		Warmup:  statWarmCloneLen,
	}
	sub, err := simrun.New("", append(cloneSpec.Options(),
		simrun.Streams([]trace.Stream{clone}, []trace.Stream{warmTwin}))...)
	if err != nil {
		return simrun.Result{}, err
	}
	res, err := sub.Run(ctx)
	if err != nil {
		return res, err
	}
	if res.Cycles <= 0 || res.TotalRetired == 0 {
		return simrun.Result{}, fmt.Errorf("engine: statistical: clone of %q timed nothing", s.Name())
	}

	// Extrapolate: the clone's IPC stands in for the whole budget's.
	ipc := float64(res.TotalRetired) / float64(res.Cycles)
	cycles := int64(float64(budget)/ipc + 0.5)
	return simrun.Result{Result: multicore.Result{
		Model:        res.Model,
		Cycles:       cycles,
		Cores:        []multicore.CoreResult{{Retired: uint64(budget), Finish: cycles, IPC: ipc}},
		TotalRetired: uint64(budget),
		Wall:         time.Since(start),
	}}, nil
}

// statStrata is the stratified-profiling slice count: the profile
// window is split into this many equal slices spread evenly across the
// scenario's measured span.
const statStrata = 4

// profileStream positions the profiler over the scenario's measured
// region. Skippable streams with a span longer than the profile window
// yield statProfileWarm warmup instructions ending at the span start,
// then statStrata slices at even offsets through the span; anything
// else (non-skippable streams, short spans) degrades to the plain
// sequential stream.
func profileStream(s *simrun.Scenario, budget int) trace.Stream {
	g := workload.New(s.Profile(), 0, 1, s.SeedValue())
	if !g.Skippable() || budget <= statProfileWindow {
		return g
	}
	wstart := uint64(s.WarmupBudget())
	warm := uint64(statProfileWarm)
	if warm > wstart {
		warm = wstart
	}
	if err := g.SkipTo(wstart - warm); err != nil {
		return workload.New(s.Profile(), 0, 1, s.SeedValue())
	}
	per := uint64(statProfileWindow / statStrata)
	stride := uint64(budget) / statStrata
	st := &stratified{g: g, next: warm + per}
	for i := uint64(1); i < statStrata; i++ {
		st.starts = append(st.starts, wstart+i*stride)
	}
	st.per = per
	return st
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
