// Package core implements interval simulation, the paper's primary
// contribution: a mechanistic analytical core model that replaces
// cycle-accurate out-of-order core simulation inside a multi-core
// simulator.
//
// Execution is modeled as the smooth streaming of instructions through the
// pipeline at an effective dispatch rate, punctuated by miss events —
// I-cache/I-TLB misses, branch mispredictions, long-latency loads
// (last-level or coherence misses and D-TLB misses) and serializing
// instructions — that each charge an analytically derived penalty
// (Section 2 of the paper). Miss events come from the same branch predictor
// and memory hierarchy simulators that drive the detailed baseline; only
// the core-level timing model is replaced.
//
// Two structures implement the model (Figure 2): a *window* of in-flight
// instructions, sized like the ROB, used to find miss events hidden
// underneath long-latency loads (second-order overlap effects); and an
// *old window* of recently retired instructions whose dataflow gives the
// critical path length, from which the branch resolution time, the window
// drain time and the effective dispatch rate are derived (the paper's "old
// window approach").
package core

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// OldWindow tracks the dataflow of the most recently dispatched
// instructions. Each inserted instruction records a completion time equal
// to the maximum completion time of its producers plus its own execution
// latency. The window maintains a head time (completion of the oldest
// evicted instruction) and a tail time (latest completion); their
// difference approximates the critical path length through the window
// without walking it (Section 3.2).
// The window maintains two dataflow tracks. The *pure* track computes
// issue = max(producer completions) + latency and feeds the critical-path
// estimate behind the effective dispatch rate (Little's law needs the
// resource-unconstrained dataflow height). The *floored* track additionally
// lower-bounds each issue time by the instruction's dispatch time, so a
// producer dispatched long before its consumer is modeled as already
// executed — this is what makes the branch resolution time mean "time
// between the mispredicted branch dispatching and resolving", as the paper
// defines it, rather than the full dataflow depth since the last miss
// event.
// All tracked times are stored on a fixed virtual axis and read relative to
// base: rel(v) = max(v-base, 0). Shift then only advances base — O(1)
// instead of rewriting every register and ring slot — which is exactly
// equivalent because max(max(v-a,0)-b, 0) == max(v-a-b, 0) and max commutes
// with the subtraction.
type OldWindow struct {
	cfg      config.Core
	issues   []int64 // ring buffer of issue times (pure track), pow2 sized
	mask     int     // len(issues)-1
	capn     int     // logical capacity (the ROB size)
	head     int
	n        int
	base     int64
	headTime int64
	tailTime int64
	// reg holds both dataflow tracks per architectural register, adjacent
	// so one cache line serves both reads (and both writes) of an
	// operand. Indexed directly by operand byte: slot RegNone (0xFF) is
	// never written and stays zero, so operand reads need no "is there an
	// operand" branches (a zero virtual time clamps to no constraint).
	reg       [256]regTimes
	tailFloor int64

	// lat caches ExecLatency per class, sized for any class byte so the
	// indexing needs no bounds check; width caches the dispatch width —
	// Insert and DispatchRate run once per dispatched instruction.
	lat   [256]int64
	width float64
	// DispatchRate memo, keyed on the critical path it was computed from
	// (the division is on the per-cycle path).
	memoCP   int64
	memoRate float64
}

// NewOldWindow creates an old window with the ROB's capacity.
func NewOldWindow(cfg config.Core) *OldWindow {
	w := &OldWindow{
		cfg:    cfg,
		issues: make([]int64, 1<<bits.Len(uint(cfg.ROBSize-1))),
		capn:   cfg.ROBSize,
		width:  float64(cfg.DecodeWidth),
		memoCP: -1,
	}
	w.mask = len(w.issues) - 1
	for c := range w.lat {
		w.lat[c] = int64(cfg.ExecLatency(isa.Class(c)))
	}
	return w
}

// regTimes is one register's completion time on the pure and floored
// dataflow tracks (virtual axis).
type regTimes struct {
	pure  int64
	floor int64
}

// rel reads a stored virtual time relative to the current base, clamping at
// zero (a time fully covered by past shifts is "already executed").
func (w *OldWindow) rel(v int64) int64 {
	if d := v - w.base; d > 0 {
		return d
	}
	return 0
}

// Len returns the number of instructions currently tracked.
func (w *OldWindow) Len() int { return w.n }

// Insert records the retirement of in. loadLatency is the observed
// execution latency for loads (L1-hit latency plus any non-long-latency
// miss component, per the paper: "execution latency including the L1
// D-cache miss latency"); it is ignored for other classes. dispTime is the
// instruction's dispatch time relative to the last window flush.
func (w *OldWindow) Insert(in *isa.Inst, loadLatency, dispTime int64) {
	lat := w.lat[in.Class]
	if in.Class == isa.Load && loadLatency > 0 {
		lat = loadLatency
	}
	base := w.base

	// Pure dataflow track (times relative to base; stored virtual).
	// Absent operands read slot RegNone = 0, which clamps below zero and
	// constrains nothing.
	s1, s2 := &w.reg[in.Src1], &w.reg[in.Src2]
	issue := s1.pure - base
	if v := s2.pure - base; v > issue {
		issue = v
	}
	if issue < 0 {
		issue = 0
	}
	complete := issue + lat

	// Floored track: an instruction cannot issue before it dispatches.
	fIssue := dispTime
	if v := s1.floor - base; v > fIssue {
		fIssue = v
	}
	if v := s2.floor - base; v > fIssue {
		fIssue = v
	}
	fComplete := fIssue + lat

	if in.HasDst() {
		w.reg[in.Dst] = regTimes{pure: base + complete, floor: base + fComplete}
	}
	// Head and tail times track ISSUE times (Section 3.2): "the new tail
	// time is computed as the maximum of the previous tail time and the
	// issue time of the newly inserted instruction; similarly, the new
	// head time is the maximum of the previous head time and the issue
	// time of the removed instruction."
	vIssue := base + issue
	if vIssue > w.tailTime {
		w.tailTime = vIssue
	}
	if base+fComplete > w.tailFloor {
		w.tailFloor = base + fComplete
	}
	iss := w.issues
	if w.n == w.capn {
		// Steady state: evict the head, keep occupancy at capn. The tail
		// slot coincides with the evicted head slot only when the logical
		// capacity fills the whole pow2 ring (power-of-two ROB sizes).
		old := iss[w.head&(len(iss)-1)]
		if old > w.headTime {
			w.headTime = old
		}
		iss[(w.head+w.capn)&(len(iss)-1)] = vIssue
		w.head = (w.head + 1) & w.mask
		return
	}
	iss[(w.head+w.n)&(len(iss)-1)] = vIssue
	w.n++
}

// CriticalPath approximates the critical path length in cycles through the
// tracked instructions: tail time minus head time, at least one cycle.
func (w *OldWindow) CriticalPath() int64 {
	cp := w.rel(w.tailTime) - w.rel(w.headTime)
	if cp < 1 {
		return 1
	}
	return cp
}

// DispatchRate returns the effective dispatch rate in instructions per
// cycle: by Little's law the maximum execution rate is the window size
// divided by the critical path length, capped at the designed dispatch
// width (Section 3.2). The division is memoized on the critical path, which
// changes far less often than the per-cycle call site.
func (w *OldWindow) DispatchRate() float64 {
	if w.n == 0 {
		return w.width
	}
	cp := w.tailTime - w.base
	if h := w.headTime - w.base; h > 0 {
		if cp < 0 {
			cp = 0
		}
		cp -= h
	}
	if cp < 1 {
		cp = 1
	}
	if cp == w.memoCP {
		return w.memoRate
	}
	return w.dispatchRateSlow(cp)
}

func (w *OldWindow) dispatchRateSlow(cp int64) float64 {
	rate := float64(w.capn) / float64(cp)
	if rate > w.width {
		rate = w.width
	}
	w.memoCP, w.memoRate = cp, rate
	return rate
}

// BranchResolution returns the branch resolution time for a mispredicted
// branch dispatching at dispTime (relative to the last window flush): the
// remaining length of the dependence chain leading to the branch — the time
// between the branch dispatching and being resolved.
func (w *OldWindow) BranchResolution(br *isa.Inst, dispTime int64) int64 {
	issue := dispTime
	if v := w.rel(w.reg[br.Src1].floor); v > issue {
		issue = v
	}
	if v := w.rel(w.reg[br.Src2].floor); v > issue {
		issue = v
	}
	res := issue + w.lat[br.Class] - dispTime
	if res < 1 {
		return 1
	}
	return res
}

// BranchResolutionPure returns the branch resolution time computed on the
// pure dataflow track: the full dependence-chain depth to the branch since
// the last miss event, without the dispatch-time floor. This is the
// NoDispatchFloor ablation — the estimate prior interval-analysis work
// derives from an offline profile.
func (w *OldWindow) BranchResolutionPure(br *isa.Inst) int64 {
	issue := int64(0)
	if v := w.rel(w.reg[br.Src1].pure); v > issue {
		issue = v
	}
	if v := w.rel(w.reg[br.Src2].pure); v > issue {
		issue = v
	}
	res := issue + w.lat[br.Class] - w.rel(w.headTime)
	if res < 1 {
		return 1
	}
	return res
}

// DrainTime returns the window drain time charged to a serializing
// instruction dispatching at dispTime: the time for all in-flight work to
// complete, at least the occupancy divided by the dispatch width.
func (w *OldWindow) DrainTime(dispTime int64) int64 {
	if w.n == 0 {
		return 1
	}
	byWidth := int64((w.n + w.cfg.DecodeWidth - 1) / w.cfg.DecodeWidth)
	rem := w.rel(w.tailFloor) - dispTime
	if rem > byWidth {
		return rem
	}
	return byWidth
}

// Shift re-bases the window's relative time by elapsed cycles: every
// tracked issue/completion time moves elapsed cycles into the past
// (clamping at zero = already executed). Called at miss events instead of
// a full flush: the penalty's elapsed time ages the in-flight dataflow, so
// chains fully covered by the penalty vanish (the paper's interval-length
// effect on resolution and drain times) while genuinely longer chains —
// loop-carried recurrences — survive the event, as they do in the machine.
// With times stored on the virtual axis this is one addition, not a walk
// over every register and ring slot.
func (w *OldWindow) Shift(elapsed int64) {
	if elapsed <= 0 {
		return
	}
	w.base += elapsed
}

// Empty flushes the window. The paper empties the old window on every miss
// event so that the branch resolution time and drain time correlate with
// the *interval length* — a short interval implies a short chain to the
// next mispredicted branch (the "interval length effect").
func (w *OldWindow) Empty() {
	w.head, w.n = 0, 0
	w.base = 0
	w.headTime, w.tailTime = 0, 0
	w.tailFloor = 0
	w.memoCP = -1
	for i := range w.reg {
		w.reg[i] = regTimes{}
	}
}
