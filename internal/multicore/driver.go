// Package multicore runs N simulated cores — detailed, interval or one-IPC
// — against a shared memory hierarchy and a synchronization coordinator,
// and reports per-core and machine-level results. It is the outer loop of
// Figure 3: global time advances cycle by cycle; each live core is stepped
// once per cycle, except that a core with nothing to do (an interval core
// behind a miss-event penalty, a detailed core waiting on DRAM) is left
// alone until the cycle it announced, and global time jumps over cycles no
// core is awake in.
package multicore

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oneipc"
	"repro/internal/ooo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Model selects the core timing model.
type Model int

const (
	// Detailed is the cycle-level out-of-order baseline.
	Detailed Model = iota
	// Interval is the paper's analytical model.
	Interval
	// OneIPC is the naive one-instruction-per-cycle ablation model.
	OneIPC
)

// modelNames are the models' wire names, indexed by Model: what a spec's
// "model" field carries and what results and reports are labelled with.
var modelNames = [...]string{Detailed: "detailed", Interval: "interval", OneIPC: "oneipc"}

// String returns the model's wire name.
func (m Model) String() string {
	if m < 0 || int(m) >= len(modelNames) {
		return fmt.Sprintf("model(%d)", int(m))
	}
	return modelNames[m]
}

// Models lists the models' wire names, sorted.
func Models() []string {
	names := slices.Clone(modelNames[:])
	slices.Sort(names)
	return names
}

// ParseModel resolves a wire name to its model.
func ParseModel(name string) (Model, bool) {
	i := slices.Index(modelNames[:], name)
	return Model(i), i >= 0
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Machine is the simulated hardware; Machine.Cores must equal the
	// number of streams passed to Run.
	Machine config.Machine
	// Model selects the core timing model.
	Model Model
	// Interrupt, when non-nil, aborts the run early once the channel is
	// closed (or receives). The driver polls it periodically — once per
	// 4096-instruction chunk of functional warmup, every 1024 iterations
	// of the stepping loop; an interrupted run returns with
	// Result.Interrupted set and whatever progress was made (none, and no
	// cores built, when warmup was cut short). Batch runners use this for
	// cancellation and deadlines.
	Interrupt <-chan struct{}
	// Perfect selects always-hit structures (Figure 4 experiments).
	Perfect memhier.Perfect
	// MaxCycles aborts runaway runs (0 = a generous default).
	MaxCycles int64
	// KeepCores retains the core model objects in Result.Sim so callers
	// can read model-specific state (e.g. the interval model's CPI
	// stacks) after the run.
	KeepCores bool
	// WarmupInsts functionally warms caches, TLBs and branch predictors
	// with this many instructions per core before timed simulation, then
	// clears statistics (the paper's 100M-instruction SimPoints arrive
	// warm; short synthetic runs must be warmed explicitly).
	WarmupInsts int
	// Warmup optionally supplies separate warmup streams (e.g. twin
	// generators replaying the measured stream); when nil, warmup
	// consumes the head of the main streams.
	Warmup []trace.Stream
	// Ablation selects interval-model ablation variants (zero value =
	// full model); ignored by the other models.
	Ablation core.Options
	// Trace, when non-nil, receives warmup and measure spans for the
	// run. Spans are host wall-clock observability only: they never
	// influence simulated state, so results are identical with tracing
	// on or off. Nil (the default) costs nothing on the stepping path.
	Trace *obs.Tracer
	// Heartbeat, when non-nil, receives throttled live-progress reports
	// (instructions retired, MIPS, ETA). It is polled at the same
	// periodic points as Interrupt, so the per-cycle path stays free of
	// observability work.
	Heartbeat *obs.Heartbeat

	// newCore, when non-nil, is handed each core Model built and
	// returns the core the driver steps in its place: the seam that lets
	// a driver test run scripted or wrapped cores.
	newCore func(i int, c sim.Core) sim.Core
}

// CoreResult is the outcome for one core/thread.
type CoreResult struct {
	Retired uint64
	// Finish is the core-local simulated time at which the thread
	// completed.
	Finish int64
	IPC    float64
}

// Result is the outcome of one multi-core run.
type Result struct {
	Model Model
	// Cycles is the machine-level execution time: the time the last
	// thread finished.
	Cycles int64
	Cores  []CoreResult
	// TotalRetired sums retired instructions across cores.
	TotalRetired uint64
	// Wall is the host wall-clock duration of the simulation, used for
	// the simulation-speed comparisons of Figures 9 and 10.
	Wall time.Duration
	// TimedOut is set when MaxCycles was reached before completion.
	TimedOut bool
	// Interrupted is set when RunConfig.Interrupt fired before completion.
	Interrupted bool
	// Sim holds the core model objects when RunConfig.KeepCores is set.
	Sim []sim.Core
	// Mem is the memory hierarchy when RunConfig.KeepCores is set (for
	// post-run statistics reporting).
	Mem *memhier.Hierarchy
}

// MIPS returns simulated instructions per host second in millions.
func (r Result) MIPS() float64 {
	s := r.Wall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.TotalRetired) / s / 1e6
}

// Run simulates the streams (one per core) to completion under cfg and
// returns the result. The number of streams must equal Machine.Cores. It is
// the composition of the two halves below over a machine it builds: Warmup
// when cfg.WarmupInsts asks for it, then Measure.
func Run(cfg RunConfig, streams []trace.Stream) Result {
	mem := memhier.New(cfg.Machine.Cores, cfg.Machine.Mem, cfg.Perfect)
	bps := make([]*branch.Unit, cfg.Machine.Cores)
	for i := range bps {
		bps[i] = branch.NewUnit(cfg.Machine.Branch)
	}
	if cfg.WarmupInsts > 0 {
		warm := cfg.Warmup
		if warm == nil {
			warm = streams
		}
		wsp := cfg.Trace.Start("warmup").Arg("insts_per_core", int64(cfg.WarmupInsts))
		warmed := warmup(mem, bps, warm, cfg.WarmupInsts, cfg.Interrupt)
		wsp.End()
		if !warmed {
			res := newResult(cfg)
			res.Interrupted = true
			return res
		}
	}
	return Measure(cfg, mem, bps, streams)
}

// newResult is the result of a run under cfg that has not simulated a cycle.
func newResult(cfg RunConfig) Result {
	return Result{Model: cfg.Model, Cores: make([]CoreResult, cfg.Machine.Cores)}
}

// Measure is the timed half of Run: it builds cfg's cores over the given
// memory hierarchy and branch units — in whatever state the caller left
// them, typically warmed by Warmup — and steps them until every stream has
// ended. The warm-up and Perfect fields of cfg are not consulted. A caller
// that keeps mem and bps can time one region after another over the same
// machine state, which is how sampled simulation times its units.
func Measure(cfg RunConfig, mem *memhier.Hierarchy, bps []*branch.Unit, streams []trace.Stream) Result {
	if len(streams) != cfg.Machine.Cores {
		panic(fmt.Sprintf("multicore: %d streams for %d cores", len(streams), cfg.Machine.Cores))
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	res := newResult(cfg)
	coord := NewCoordinator(cfg.Machine.Cores)
	cores := buildCores(cfg, bps, mem, coord, streams, maxCycles)

	// live holds the indices of cores that have not finished, in ascending
	// order; finished cores drop out instead of being re-checked every
	// cycle of a long run. The rotation below still uses the full core
	// count so the visit order of the surviving cores is unchanged.
	live := make([]int, len(cores))
	for i := range live {
		live[i] = i
	}

	// poll folds the observability hooks into the existing periodic
	// interrupt check, so the per-cycle path gains no new branches when
	// neither is set.
	poll := cfg.Interrupt != nil || cfg.Heartbeat != nil
	msp := cfg.Trace.Start("measure")
	start := time.Now()
	now := int64(0)
	n := len(cores)
	// finish closes the run at global time end, whichever loop below ended
	// it: per-core retired counts and finish times (end for a core that did
	// not finish) and the machine-level totals. A loop that timed out
	// jumped to the first wake time at or past maxCycles; the run ends at
	// maxCycles under every model. A core finishes only in a Step at its
	// own time, before the limit, so no finish time exceeds it.
	finish := func(end int64) Result {
		end = min(end, maxCycles)
		msp.Arg("cycles", end).End()
		res.Wall = time.Since(start)
		if cfg.KeepCores {
			res.Sim = cores
			res.Mem = mem
		}
		for i, c := range cores {
			fin := c.FinishTime()
			if !c.Done() {
				fin = end
			}
			res.Cores[i] = CoreResult{
				Retired: c.Retired(),
				Finish:  fin,
				IPC:     metrics.IPC(c.Retired(), fin),
			}
			res.TotalRetired += c.Retired()
			if fin > res.Cycles {
				res.Cycles = fin
			}
		}
		cfg.Heartbeat.Final(res.TotalRetired)
		return res
	}
	if n == 1 {
		// Single-core fast loop: no rotation, no live-list bookkeeping —
		// the dominant case for SPEC runs and sweeps. Semantically
		// identical to the general loop below with one core.
		c := cores[0]
		if c.Done() {
			coord.NoteDone(0)
		} else {
			for iter := uint(0); ; iter++ {
				if poll && iter&1023 == 0 {
					if cfg.Interrupt != nil {
						select {
						case <-cfg.Interrupt:
							res.Interrupted = true
						default:
						}
						if res.Interrupted {
							break
						}
					}
					cfg.Heartbeat.Tick(c.Retired())
				}
				c.Step(now)
				if c.Done() {
					coord.NoteDone(0)
					break
				}
				now = c.NextActive(now + 1)
				if now >= maxCycles {
					res.TimedOut = true
					break
				}
			}
		}
		return finish(now)
	}
	// wake[i] is the global cycle before which core i does nothing: what
	// NextActive(now+1) answered right after the core's last Step. The
	// answer is a function of the core's own state (sim.Core), so it
	// stands until the core is stepped again, and until then the loop
	// neither steps the core nor asks it anything.
	wake := make([]int64, n)
	for iter := uint(0); ; iter++ {
		// Poll the interrupt channel periodically, not every iteration:
		// a channel select on the per-cycle path would be measurable.
		if poll && iter&1023 == 0 {
			if cfg.Interrupt != nil {
				select {
				case <-cfg.Interrupt:
					res.Interrupted = true
				default:
				}
				if res.Interrupted {
					break
				}
			}
			if cfg.Heartbeat != nil {
				var sum uint64
				for _, c := range cores {
					sum += c.Retired()
				}
				cfg.Heartbeat.Tick(sum)
			}
		}
		// Rotate the stepping order each cycle: same-cycle races for the
		// shared bus and L2 are then arbitrated round-robin instead of
		// systematically favoring low-numbered cores. The rotation is
		// over core indices (not live-list positions), so removing
		// finished cores does not perturb the order of the rest.
		first := int(now) & (n - 1)
		if n&(n-1) != 0 {
			first = int(uint64(now) % uint64(n))
		}
		start2 := 0
		for start2 < len(live) && live[start2] < first {
			start2++
		}
		removed := false
		// minWake is the earliest wake time among the cores that stay
		// live: the next global cycle any of them is simulated in.
		var minWake int64 = 1<<62 - 1
		for k := 0; k < len(live); k++ {
			pos := start2 + k
			if pos >= len(live) {
				pos -= len(live)
			}
			i := live[pos]
			if wake[i] > now {
				minWake = min(minWake, wake[i])
				continue
			}
			c := cores[i]
			// A core only finishes inside Step, so only a core that was
			// already done when handed to the driver is found done before
			// its Step, and only on the first iteration.
			if iter == 0 && c.Done() {
				coord.NoteDone(i)
				live[pos] = -1
				removed = true
				continue
			}
			c.Step(now)
			if c.Done() {
				coord.NoteDone(i)
				live[pos] = -1
				removed = true
			} else {
				wake[i] = c.NextActive(now + 1)
				minWake = min(minWake, wake[i])
			}
		}
		if removed {
			w := 0
			for _, i := range live {
				if i >= 0 {
					live[w] = i
					w++
				}
			}
			live = live[:w]
		}
		if len(live) == 0 {
			break
		}
		// Event-driven skip: if every live core is asleep, jump straight
		// to the earliest wake time — no core would be simulated in
		// between.
		now = max(now+1, minWake)
		if now >= maxCycles {
			res.TimedOut = true
			break
		}
	}
	return finish(now)
}

// buildCores constructs the per-core model instances for cfg. A run stops
// at maxCycles, and the detailed core's NextActive never answers past it.
func buildCores(cfg RunConfig, bps []*branch.Unit, mem *memhier.Hierarchy, coord sim.Syncer, streams []trace.Stream, maxCycles int64) []sim.Core {
	cores := make([]sim.Core, cfg.Machine.Cores)
	for i := range cores {
		bp := bps[i]
		switch cfg.Model {
		case Detailed:
			cores[i] = ooo.New(i, cfg.Machine.Core, bp, mem, streams[i], coord, maxCycles)
		case Interval:
			cores[i] = core.New(i, cfg.Machine.Core, cfg.Ablation, bp, mem, streams[i], coord)
		case OneIPC:
			cores[i] = oneipc.New(i, mem, streams[i], coord)
		default:
			panic("multicore: unknown model")
		}
		if cfg.newCore != nil {
			cores[i] = cfg.newCore(i, cores[i])
		}
	}
	return cores
}

// Warmup functionally warms the caches, TLBs and branch predictors with n
// instructions per core and clears statistics afterwards — the driver's
// warmup, exported so a machine can be warmed without running it.
func Warmup(mem *memhier.Hierarchy, bps []*branch.Unit, streams []trace.Stream, n int) {
	warmup(mem, bps, streams, n, nil)
}

// warmup replays n instructions per core through the caches, TLBs and
// branch predictors without timing, then clears all statistics. This is
// standard functional warming: the timed portion then measures steady-state
// behaviour instead of cold-start misses. A non-nil interrupt is polled
// once per chunk; when it fires warmup stops there and returns false, with
// the machine half warmed and its statistics uncleared.
func warmup(mem *memhier.Hierarchy, bps []*branch.Unit, streams []trace.Stream, n int, interrupt <-chan struct{}) bool {
	buf := make([]isa.Inst, 4096)
	for i, s := range streams {
		if i >= len(bps) {
			break
		}
		// Consume exactly n instructions in chunks: the chunk is clamped
		// so warmup never over-reads a stream that the timed run then
		// continues from.
		// Fetch is line-granular here as in both timed cores: only the
		// first instruction on each 64-byte line accesses the I-side. A
		// repeat would hit the most recently used line of this core's L1I
		// and ITLB, which changes no relative LRU order, and the
		// statistics are cleared below — skipping it leaves the warmed
		// state as it was.
		lastLine := ^uint64(0)
		for left := n; left > 0; {
			want := len(buf)
			if want > left {
				want = left
			}
			if interrupt != nil {
				select {
				case <-interrupt:
					return false
				default:
				}
			}
			k := s.NextBatch(buf[:want])
			if k == 0 {
				break
			}
			left -= k
			for j := 0; j < k; j++ {
				in := &buf[j]
				if in.Class.IsSync() {
					continue
				}
				if line := in.PC >> 6; line != lastLine {
					lastLine = line
					mem.Inst(i, in.PC, 0)
				}
				if in.Class.IsBranch() {
					bps[i].Predict(in)
				}
				if in.Class.IsMem() {
					mem.Data(i, in.Addr, in.Class == isa.Store, 0)
				}
			}
		}
	}
	mem.ResetStats()
	for _, bp := range bps {
		bp.ResetStats()
	}
	return true
}
