// Package workload is the functional simulator of this reproduction: a
// deterministic synthetic-benchmark generator that stands in for the M5
// functional simulator running Alpha binaries of SPEC CPU2000 and PARSEC
// (which are unavailable here; see docs/architecture.md, "Functional layer:
// workload → trace").
//
// Each benchmark is a Profile: a statistical description of the program's
// instruction mix, control-flow structure (synthetic CFG with loop, biased
// and unpredictable branch sites), memory behaviour (working-set regions,
// strides, pointer chasing), system-code fraction, and — for multi-threaded
// profiles — sharing and synchronization structure. A Profile expands into
// a per-thread trace.Stream that is fed identically to the detailed
// baseline and the interval simulator, so the accuracy comparison exercises
// the same inputs as the paper's.
package workload

// Mix gives the instruction-class composition of a profile. Fractions are
// normalized by the generator; they need not sum to one exactly.
type Mix struct {
	IntALU float64
	IntMul float64
	IntDiv float64
	FP     float64
	Load   float64
	Store  float64
	Branch float64
	Call   float64 // calls (matched by returns) as a fraction of branches
}

// Region is one working-set region of the data address space.
type Region struct {
	// Bytes is the region size; how it compares to the L1 (32KB) and L2
	// (4MB) determines where its accesses hit.
	Bytes uint64
	// Prob is the probability that a memory access falls in this region.
	Prob float64
	// Stride, when nonzero, walks the region sequentially with this
	// byte stride (streaming); zero picks uniformly random lines.
	Stride uint64
	// Shared marks the region as shared between threads of a
	// multi-threaded profile (same physical addresses; coherence
	// traffic). Private regions are offset per thread.
	Shared bool
	// WriteFrac overrides the store probability within this region
	// when >= 0; shared regions with high write fractions generate
	// invalidation/coherence traffic.
	WriteFrac float64
}

// Profile is a complete synthetic benchmark description.
type Profile struct {
	Name string

	Mix     Mix
	Regions []Region

	// PointerChase is the fraction of loads whose address and operands
	// depend on the previous load (mcf-style dependent misses: no MLP).
	PointerChase float64

	// DepDistMean is the mean register dependence distance in dynamic
	// instructions; small values serialize execution (low ILP).
	DepDistMean float64

	// ChainFrac is the fraction of instructions extending the
	// loop-carried dependence chain (accumulators, induction updates).
	// It sets the serial backbone of the dataflow: loop iterations are
	// otherwise independent, so the window-level ILP a machine can
	// extract is bounded by roughly 1/ChainFrac per cycle of chain
	// latency.
	ChainFrac float64

	// Control-flow structure.
	Funcs         int     // synthetic functions
	BlocksPerFunc int     // basic blocks per function
	BlockLenMean  float64 // mean instructions per block
	LoopFrac      float64 // branch sites that are loop back-edges
	BiasedFrac    float64 // biased (mostly-taken or mostly-not) sites
	// Remaining sites are data-dependent/unpredictable.
	LoopTripMean float64 // mean loop trip count
	BiasedProb   float64 // taken probability of biased sites
	RandomProb   float64 // taken probability of unpredictable sites

	// SerializeEvery emits roughly one serializing instruction per this
	// many instructions (0 = none). Full-system profiles use small
	// values.
	SerializeEvery int

	// SystemFrac is the fraction of execution spent in "system code"
	// segments: a separate (large) code footprint with extra
	// serializing instructions, modeling the OS activity of
	// full-system PARSEC runs.
	SystemFrac float64

	// Multi-threaded structure (zero values for single-threaded
	// profiles).

	// BarrierEvery inserts a barrier roughly every this many
	// instructions per thread (0 = no barriers).
	BarrierEvery int
	// Imbalance skews per-thread work between barriers: thread t does
	// work proportional to 1 + Imbalance*t/(T-1).
	Imbalance float64
	// SerialFrac pins this fraction of the total work to thread 0
	// regardless of thread count (a pipeline source stage): speedup then
	// plateaus at 1/SerialFrac, which is how vips-style benchmarks fail
	// to improve with more cores.
	SerialFrac float64
	// Locks is the number of distinct locks; 0 disables locking.
	Locks int
	// LockEvery brackets a critical section roughly every this many
	// instructions (0 = none).
	LockEvery int
	// CritLen is the mean critical-section length in instructions.
	CritLen float64
	// TotalWork is the total dynamic instruction budget divided among
	// threads (data-parallel scaling); 0 means per-thread streams are
	// unbounded and the run length is set by the driver.
	TotalWork uint64
}

// MultiThreaded reports whether the profile describes a multi-threaded
// (PARSEC-like) benchmark.
func (p *Profile) MultiThreaded() bool {
	return p.BarrierEvery > 0 || p.Locks > 0 || p.TotalWork > 0
}
