package workload

import (
	"fmt"
	"hash/fnv"

	"repro/internal/isa"
)

// Static-program machinery: a Profile expands into a synthetic control-flow
// graph (functions of basic blocks with loop/biased/random branch sites and
// call edges). The generator then *interprets* this CFG, so instruction PCs
// repeat exactly the way real code repeats — hot loops touch few I-cache
// lines and train the branch predictor, cold paths do not.

type siteKind uint8

const (
	siteLoop siteKind = iota
	siteBiased
	siteRandom
)

type branchSite struct {
	kind   siteKind
	trip   int    // loop trip count
	cut    uint64 // taken threshold (probCut) for biased/random sites
	target int    // taken-target block index within the function
	count  int    // dynamic state: iterations since last exit
}

type block struct {
	startPC uint64
	bodyLen int // instructions before the terminator
	// Terminator: term==termCall jumps to callee; term==termRet pops;
	// term==termBranch consults the site.
	term   uint8
	site   int // index into function's sites for termBranch
	callee int // function index for termCall
}

const (
	termBranch = iota
	termCall
	termRet
)

type function struct {
	blocks []block
	sites  []branchSite
	entry  uint64 // entry PC
}

type program struct {
	funcs    []function
	codeSize uint64
}

// buildProgram synthesizes the static CFG for a profile. base is the code
// base address; kernel programs live at a distant base so user and system
// code do not share I-cache lines. blen and trip are the profile's
// tabulated block-length and loop-trip samplers (v3: alias tables replace
// the inverse-transform math.Log draws).
func buildProgram(p *Profile, rng *fastRand, blen, trip *aliasGeom, base uint64, funcs, blocksPerFunc int) *program {
	prog := &program{funcs: make([]function, 0, funcs)}
	pc := base
	for f := 0; f < funcs; f++ {
		fn := function{blocks: make([]block, 0, blocksPerFunc), sites: make([]branchSite, 0, blocksPerFunc)}
		for b := 0; b < blocksPerFunc; b++ {
			bl := block{startPC: pc}
			bl.bodyLen = 1 + blen.sample(rng)
			pc += uint64(bl.bodyLen+1) * 4

			switch {
			case b == blocksPerFunc-1:
				bl.term = termRet
			case funcs > 1 && rng.Float64() < callFrac(p):
				bl.term = termCall
				bl.callee = rng.Intn(funcs)
			default:
				bl.term = termBranch
				bl.site = len(fn.sites)
				fn.sites = append(fn.sites, makeSite(p, rng, trip, b, blocksPerFunc))
			}
			fn.blocks = append(fn.blocks, bl)
		}
		fn.entry = fn.blocks[0].startPC
		prog.funcs = append(prog.funcs, fn)
	}
	prog.codeSize = pc - base
	return prog
}

// callFrac converts the profile's call mix into a per-block probability.
func callFrac(p *Profile) float64 {
	if p.Mix.Branch <= 0 {
		return 0
	}
	return p.Mix.Call
}

func makeSite(p *Profile, rng *fastRand, trip *aliasGeom, blockIdx, nBlocks int) branchSite {
	r := rng.Float64()
	switch {
	case r < p.LoopFrac && blockIdx > 0:
		t := 2 + trip.sample(rng)
		// Back edge to a nearby earlier block.
		back := blockIdx - 1 - rng.Intn(min(blockIdx, 4))
		return branchSite{kind: siteLoop, trip: t, target: back}
	case r < p.LoopFrac+p.BiasedFrac:
		return branchSite{kind: siteBiased, cut: probCut(p.BiasedProb), target: fwdTarget(rng, blockIdx, nBlocks)}
	default:
		return branchSite{kind: siteRandom, cut: probCut(p.RandomProb), target: fwdTarget(rng, blockIdx, nBlocks)}
	}
}

func fwdTarget(rng *fastRand, blockIdx, nBlocks int) int {
	if blockIdx+2 >= nBlocks {
		return nBlocks - 1
	}
	return blockIdx + 1 + rng.Intn(nBlocks-blockIdx-1)
}

// staticSeed derives the static-program seed from the profile name, so the
// synthetic "binary" is a property of the benchmark alone.
func staticSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// fastRand is a sequential splitmix64 PRNG. Since v3 it drives only the
// off-hot-path draws that never need jump-ahead: static program
// construction (a property of the profile name) and the synchronization
// schedule of multi-threaded profiles (which pins those streams to
// sequential generation anyway — see Skippable). The dynamic
// per-instruction draws use the counter-based ctrRand.
type fastRand struct{ s uint64 }

func newFastRand(seed int64) *fastRand { return &fastRand{s: uint64(seed)} }

func (r *fastRand) next() uint64 {
	r.s += splitmixGamma
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *fastRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *fastRand) Intn(n int) int { return int(r.next() % uint64(n)) }

// frame is one call-stack entry of the interpreter.
type frame struct {
	fn    int
	block int
}

// regionState is one working-set region as the emitter sees it: the
// dynamic cursor, and everything about the region the per-access path
// would otherwise re-derive from the profile, fixed at construction.
type regionState struct {
	base     uint64
	cursor   uint64
	stride   uint64 // 0 picks uniformly random lines
	size     uint64 // bytes, at least one line
	lines    uint64 // size / 64
	sizeMask uint64 // size-1 when size is a power of two, else 0: use %
	lineMask uint64 // lines-1 when lines is a power of two, else 0: use %
	cut      uint64 // cumulative region-select threshold
	writeCut uint64 // chance an access to the region is a store
}

// syncOp is a queued synchronization instruction: all it carries.
type syncOp struct {
	class isa.Class
	id    uint16
}

// StreamVersion is the stream-format generation this package produces.
// It changes only on a deliberate break of the bit-identical-stream
// guarantee (v2: multi-program copies at disjoint address-space slots;
// v3: counter-based RNG with chunked O(1) skip-ahead and tabulated
// geometric draws — every stream renumbered). Consumers that persist
// streams or stream-derived results (the trace file header, the simrun
// scenario fingerprint) record it so artifacts of one generation are
// never mixed with another's; the break/bump procedure is documented in
// docs/formats.md.
const StreamVersion = 3

// ChunkLen is the v3 skip-ahead chunk length: every ChunkLen stream
// positions the generator's dynamic interpreter state (control flow,
// dataflow ring, region cursors) resets to a value derived purely from
// the chunk index, so SkipTo reaches any position by deriving the
// enclosing chunk's state in O(1) and replaying at most ChunkLen-1
// instructions. The resets are part of the v3 stream itself — skipping
// and straight generation produce byte-identical instructions.
const ChunkLen = 131072

// SlotStride is the address-space distance between two slots: slot k's
// code and data live exactly k*SlotStride above slot 0's. It is a power
// of two far above every cache's and TLB's index bits (so per-copy hit
// behaviour is slot-invariant) and far above the per-thread private-
// region offsets (threads scale to 1<<12 within a slot before two slots
// could touch), giving MaxSlots fully disjoint slots in the 64-bit space.
const SlotStride uint64 = 1 << 56

// MaxSlots is the number of disjoint address-space slots (2^64 /
// SlotStride). NewSlot rejects slots beyond it: slot k and slot
// k-MaxSlots would silently alias, breaking the no-cross-copy-sharing
// guarantee the slots exist for.
const MaxSlots = 256

// Generator interprets a profile's synthetic program and produces the
// dynamic instruction stream of one thread. It implements trace.Stream and
// is fully deterministic given (profile, thread, threads, seed, slot).
type Generator struct {
	p        *Profile
	rng      ctrRand   // counter-based: dynamic per-instruction draws
	syncRng  *fastRand // sequential: synchronization schedule only
	phaseKey uint64    // static per-profile key for phase-anchor draws
	user     *program
	kernel   *program
	thread   int
	threads  int
	slotBase uint64 // slot * SlotStride, added to every code/data base
	// functional drops the register operands from the emission; see
	// Functional.
	functional bool

	// Tabulated samplers and integer draw thresholds, precomputed so the
	// per-instruction path is table probes and compares (v3: no float
	// conversions, no math.Log).
	depDist    *aliasGeom // register dependence distances
	kernSeg    *aliasGeom // kernel segment lengths
	critLen    *aliasGeom // critical-section lengths (syncRng-driven)
	chainCut   uint64
	kernCut    uint64
	chaseCut   uint64
	cutLoad    uint64
	cutStore   uint64
	cutMul     uint64
	cutDiv     uint64
	cutFP      uint64
	chunkStep  []uint64 // expected cursor advance per chunk, stride units
	chainClass isa.Class

	// Interpreter state.
	inKernel  bool
	kernLeft  int
	cur       frame
	kcur      frame
	pos       int // next body instruction index within current block
	callStack []frame
	kstack    []frame
	nextReset uint64 // stream position of the next chunk-state reset

	// Register dataflow state. Values are iteration-local: the ring is
	// cleared on loop back-edges, and a designated accumulator register
	// carries the serial loop-carried chain, mirroring the structure of
	// real loop code (independent iterations plus accumulators).
	seq      uint64
	ring     [32]uint8 // recently written registers
	ringLen  int
	ringHead int
	nextDst  uint8
	lastLoad uint8 // dst register of the most recent load, RegNone if none

	// Memory state.
	regions    []regionState
	lastRegion int

	// Serializing/system bookkeeping.
	untilSerialize int

	// Multi-threading bookkeeping.
	budget        uint64 // remaining instructions; ^0 = unbounded
	initialBudget uint64
	sinceBarrier  uint64
	barrierAt     uint64 // emit a barrier when sinceBarrier reaches this
	untilLock     int
	critLeft      int // >0 while inside a critical section
	heldLock      uint16
	sync          bool      // the profile has barriers or locks
	pending       [2]syncOp // queued behind the last instruction
	pendLen       int
}

// New creates the stream generator for one thread of a profile. threads is
// the total thread count of the run (1 for single-threaded benchmarks);
// seed selects the deterministic instance. The stream lives in slot 0 of
// the address space; multi-program workloads that need disjoint copies
// use NewSlot.
func New(p *Profile, thread, threads int, seed int64) *Generator {
	return NewSlot(p, thread, threads, seed, 0)
}

// NewSlot is New with the stream instantiated at an address-space slot:
// every code and data base is offset by slot*SlotStride, and nothing
// else changes — the slot never enters a random draw, so the slot-k
// stream is bit-identical to the slot-0 stream with the constant offset
// added to PC, Target and Addr. Heterogeneous multi-program (Mix)
// workloads give each copy its own slot, so copies of different programs
// never alias cache lines in the shared hierarchy (no phantom coherence
// traffic).
func NewSlot(p *Profile, thread, threads int, seed int64, slot int) *Generator {
	return newSlotSalted(p, thread, threads, seed, slot, programSalt(p))
}

// newSlotSalted is NewSlot with an explicit static-program salt — the
// constructor NewCandidate shares, so the offline calibration tool can
// build candidate program realizations.
func newSlotSalted(p *Profile, thread, threads int, seed int64, slot int, salt uint64) *Generator {
	if slot < 0 || slot >= MaxSlots {
		panic(fmt.Sprintf("workload: slot %d out of range [0,%d) — slots beyond the range would alias address spaces", slot, MaxSlots))
	}
	if len(p.Regions) > 48 {
		panic(fmt.Sprintf("workload: profile %q has %d regions, more than the chunk-reset draw budget covers", p.Name, len(p.Regions)))
	}
	// The static program (CFG, branch sites, code layout) must be
	// identical across threads AND across seeds: it is the benchmark's
	// binary. Only the dynamic randomness (addresses, branch draws)
	// varies with the seed, so a warmup stream with a different seed
	// trains the same predictor sites and touches the same regions
	// without replaying the exact future line sequence.
	progRng := newFastRand(staticSeed(p.Name) ^ int64(salt*splitmixGamma))
	slotBase := uint64(slot) * SlotStride
	blockLen := p.BlockLenMean
	if blockLen <= 0 {
		if p.Mix.Branch > 0 {
			blockLen = 1/p.Mix.Branch - 1
		} else {
			blockLen = 16
		}
	}
	key := uint64(seed ^ int64(thread)*0x5E3779B97F4A7C15)
	blen := newAliasGeom(blockLen, geomTableSize(blockLen), 8)
	trip := newAliasGeom(p.LoopTripMean, geomTableSize(p.LoopTripMean), 8)
	g := &Generator{
		p:        p,
		rng:      ctrRand{key: key},
		syncRng:  newFastRand(seed ^ int64(thread)*0x5E3779B97F4A7C15),
		phaseKey: uint64(staticSeed(p.Name)),
		user:     buildProgram(p, progRng, blen, trip, slotBase+0x400000, p.Funcs, p.BlocksPerFunc),
		thread:   thread,
		threads:  threads,
		slotBase: slotBase,
		nextDst:  8,
		budget:   ^uint64(0),
		sync:     p.BarrierEvery > 0 || p.LockEvery > 0 && p.Locks > 0,
		// The interpreter never nests deeper than 64 frames.
		callStack: make([]frame, 0, 64),
	}
	g.initialBudget = g.budget
	if p.DepDistMean > 1 {
		// 64 outcomes cover every consumer: distances at or beyond the
		// 32-entry dataflow ring resolve to an ambient register.
		g.depDist = newAliasGeom(p.DepDistMean, 64, 1)
	}
	m := &p.Mix
	nonBranch := m.IntALU + m.IntMul + m.IntDiv + m.FP + m.Load + m.Store
	if nonBranch > 0 {
		g.cutLoad = probCut(m.Load / nonBranch)
		g.cutStore = probCut((m.Load + m.Store) / nonBranch)
		g.cutMul = probCut((m.Load + m.Store + m.IntMul) / nonBranch)
		g.cutDiv = probCut((m.Load + m.Store + m.IntMul + m.IntDiv) / nonBranch)
		g.cutFP = probCut((m.Load + m.Store + m.IntMul + m.IntDiv + m.FP) / nonBranch)
	}
	g.chainCut = probCut(p.ChainFrac)
	g.chaseCut = probCut(p.PointerChase)
	g.chainClass = isa.IntALU
	if p.Mix.FP >= 0.25 {
		g.chainClass = isa.FPOp
	}
	g.lastLoad = isa.RegNone
	if p.SystemFrac > 0 {
		// Kernel code: one big function with many blocks, distant base.
		// An average segment of ~400 instructions gives an overall
		// in-kernel fraction of about SystemFrac.
		g.kernel = buildProgram(p, progRng, blen, trip, slotBase+0x80000000, 2, 192)
		g.kernCut = probCut(p.SystemFrac / 400)
		g.kernSeg = newAliasGeom(400, geomTableSize(400), 8)
		g.kstack = make([]frame, 0, 64)
	}
	if p.CritLen > 1 {
		g.critLen = newAliasGeom(p.CritLen, geomTableSize(p.CritLen), 8)
	}
	g.initRegions()
	g.initSync()
	g.untilSerialize = -1 // derived at the first chunk reset
	return g
}

// Functional switches the generator to functional emission and returns it:
// the stream then carries what functional warm-up reads of an instruction —
// PC, Class, Addr, Taken, Target, SyncID, each byte for byte what the
// full stream has at that position — and RegNone in the register operands
// of every instruction of the program (synchronization instructions have
// none in either stream). Choosing an operand is the generator's hottest
// draw and warm-up never looks at one, so the picks are skipped wherever
// the number of draws they consume does not position a later draw of the
// same instruction. Call it before the first instruction is generated, and
// never hand the stream to a core model: without operands there is no
// dataflow to time.
func (g *Generator) Functional() *Generator {
	g.functional = true
	return g
}

func (g *Generator) initRegions() {
	var cum float64
	for i, r := range g.p.Regions {
		base := g.slotBase + uint64(0x10000000000) + uint64(i)<<34
		if !r.Shared {
			// Private regions are disjoint per thread.
			base += uint64(g.thread+1) << 44
		}
		// Cursors are dynamic state: the chunk-0 reset derives them
		// before the first instruction, so they start at zero here.
		rs := regionState{base: base, stride: r.Stride, size: max(r.Bytes, 64), writeCut: probCut(r.WriteFrac)}
		rs.lines = rs.size / 64
		if rs.size&(rs.size-1) == 0 {
			rs.sizeMask = rs.size - 1
		}
		if rs.lines&(rs.lines-1) == 0 {
			rs.lineMask = rs.lines - 1
		}
		g.regions = append(g.regions, rs)
		cum += r.Prob
	}
	// Normalize into integer cut points, and precompute each strided
	// region's expected cursor advance per chunk (accesses per chunk in
	// stride units): memory fraction of the mix times the region's share
	// of accesses times the chunk length. resetChunk uses it to continue
	// the stride walk across chunk boundaries.
	memFrac := g.p.Mix.Load + g.p.Mix.Store
	g.chunkStep = make([]uint64, len(g.p.Regions))
	if cum > 0 {
		var acc float64
		for i, r := range g.p.Regions {
			acc += r.Prob
			g.regions[i].cut = probCut(acc / cum)
			if r.Stride > 0 && r.Bytes > 0 {
				g.chunkStep[i] = uint64(float64(ChunkLen) * memFrac * (r.Prob / cum))
			}
		}
	}
}

func (g *Generator) initSync() {
	p := g.p
	if p.TotalWork > 0 && g.threads > 0 {
		g.budget = g.shareOfWork()
		g.initialBudget = g.budget
	}
	if p.BarrierEvery > 0 {
		g.barrierAt = g.scaledBarrierInterval()
	}
	if p.LockEvery > 0 && p.Locks > 0 {
		g.untilLock = p.LockEvery/2 + g.syncRng.Intn(p.LockEvery)
	}
}

// weights returns the per-thread relative work weights. With SerialFrac
// set, thread 0 is a pipeline source stage holding a fixed fraction of the
// total work; otherwise an Imbalance gradient skews the split.
func (g *Generator) weights() []float64 {
	w := make([]float64, g.threads)
	T := g.threads
	if T > 1 && g.p.SerialFrac > 0 {
		w[0] = g.p.SerialFrac
		for t := 1; t < T; t++ {
			w[t] = (1 - g.p.SerialFrac) / float64(T-1)
		}
		return w
	}
	for t := 0; t < T; t++ {
		w[t] = 1
		if T > 1 && g.p.Imbalance > 0 {
			w[t] = 1 + g.p.Imbalance*float64(t)/float64(T-1)
		}
	}
	return w
}

// shareOfWork splits TotalWork among threads by weight, so the most loaded
// thread limits scaling.
func (g *Generator) shareOfWork() uint64 {
	w := g.weights()
	var sum float64
	for _, f := range w {
		sum += f
	}
	return uint64(float64(g.p.TotalWork) * w[g.thread] / sum)
}

// scaledBarrierInterval keeps the number of barriers equal across threads
// despite imbalance, so barrier generations line up: each thread's
// interval is proportional to its work weight.
func (g *Generator) scaledBarrierInterval() uint64 {
	w := g.weights()
	var sum float64
	for _, f := range w {
		sum += f
	}
	avg := sum / float64(g.threads)
	iv := uint64(float64(g.p.BarrierEvery) * w[g.thread] / avg)
	if iv == 0 {
		iv = 1
	}
	return iv
}

// serializePeriod derives the distance to the next serializing
// instruction from the current instruction's draw budget.
func (g *Generator) serializePeriod() int {
	period := g.p.SerializeEvery
	if g.inKernel {
		period = 50 // system code serializes often
	}
	if period <= 0 {
		return -1
	}
	return period/2 + g.rng.Intn(period+1)
}

// Skippable reports whether the stream supports O(1) SkipTo. Streams
// with synchronization structure (barriers, locks) carry sequential
// schedule state that no chunk reset covers, so they fall back to
// generate-and-discard skipping.
func (g *Generator) Skippable() bool { return !g.sync }

// SkipTo positions the stream at position n: the next instruction
// handed out is instruction n, and the stream from here on is
// byte-identical to generating n instructions from a fresh generator
// and discarding them — the core v3 contract, fuzz-tested in
// FuzzSkipAhead. For Skippable streams the cost is O(1): the enclosing
// chunk's state is derived directly from the chunk index and at most
// ChunkLen-1 instructions are replayed, independent of n. Streams with
// synchronization structure fall back to sequential generate-and-
// discard and reject backward skips.
func (g *Generator) SkipTo(n uint64) error {
	if !g.Skippable() {
		if n < g.seq {
			return fmt.Errorf("workload: SkipTo(%d) backward from %d: stream %q has synchronization state and only skips forward", n, g.seq, g.p.Name)
		}
		g.discardTo(n)
		return nil
	}
	chunk := n / ChunkLen
	g.resetChunk(chunk)
	g.seq = chunk * ChunkLen
	g.budget = g.initialBudget
	if g.initialBudget != ^uint64(0) {
		if g.seq >= g.initialBudget {
			g.budget = 0
		} else {
			g.budget = g.initialBudget - g.seq
		}
	}
	g.discardTo(n)
	return nil
}

// discardTo replays the stream up to position n (or its end) through the
// batch emitter into a scratch buffer.
func (g *Generator) discardTo(n uint64) {
	var scratch [256]isa.Inst
	for g.seq < n {
		if g.NextBatch(scratch[:min(n-g.seq, uint64(len(scratch)))]) == 0 {
			break
		}
	}
}

// resetChunk derives the generator's dynamic interpreter state for the
// start of the given chunk, purely from the chunk index (reset-lane
// draws). It deliberately leaves the synchronization bookkeeping
// (budget, barrier/lock schedule) untouched: that state is sequential,
// and profiles that use it are not Skippable.
func (g *Generator) resetChunk(chunk uint64) {
	g.nextReset = (chunk + 1) * ChunkLen
	base := resetLane + chunk*resetStride

	// Control flow: restart interpretation at a phase-anchored function.
	// The anchor is drawn per phase (phaseChunks consecutive chunks), not
	// per chunk: a per-chunk draw would rerandomize the code signature
	// every ChunkLen instructions, destroying the phase stability that
	// code-signature analyses (SimPoint clustering) depend on. And it is
	// drawn from the static per-profile key, not the stream seed: the
	// phase sequence is a property of the benchmark binary, so streams
	// with different seeds (a warmup stream, say) visit the same code
	// regions. A phase is still a pure function of the chunk index, so
	// skip-ahead is intact.
	phase := chunk / phaseChunks
	g.cur = frame{fn: int(ctrDraw(g.phaseKey, phaseLane+phase) % uint64(len(g.user.funcs)))}
	g.pos = 0
	g.callStack = g.callStack[:0]
	g.inKernel = false
	g.kernLeft = 0
	g.kcur = frame{}
	g.kstack = g.kstack[:0]
	clearSiteCounts(g.user)
	if g.kernel != nil {
		clearSiteCounts(g.kernel)
	}

	// Dataflow.
	g.ringLen, g.ringHead = 0, 0
	g.nextDst = 8
	g.lastLoad = isa.RegNone

	// Memory: streaming cursors continue, not restart. Each chunk's
	// cursor is the stream's per-region start offset advanced by the
	// expected number of accesses all previous chunks made (chunkStep,
	// in stride units) — a pure function of the chunk index that tracks
	// where a sequential walk would actually be, so a reset does not
	// inject a burst of cold misses the way a rerandomized cursor would
	// (the detailed core serializes those misses; the interval model
	// does not, and the fidelity gap shows up in miss-bound profiles).
	g.lastRegion = 0
	for i := range g.regions {
		spec := &g.p.Regions[i]
		g.regions[i].cursor = 0
		if spec.Stride > 0 && spec.Bytes > 0 {
			slots := spec.Bytes / spec.Stride
			if slots == 0 {
				slots = 1
			}
			start := ctrDraw(g.rng.key, cursorLane+uint64(i)) % slots
			g.regions[i].cursor = ((start + chunk*g.chunkStep[i]) % slots) * spec.Stride
		}
	}

	// Serialization phase.
	if period := g.p.SerializeEvery; period > 0 {
		g.untilSerialize = period/2 + int(ctrDraw(g.rng.key, base+1)%uint64(period+1))
	} else {
		g.untilSerialize = -1
	}
}

func clearSiteCounts(prog *program) {
	for f := range prog.funcs {
		sites := prog.funcs[f].sites
		for i := range sites {
			sites[i].count = 0
		}
	}
}

// NextBatch implements trace.Stream and is the generator's only
// emission path: every instruction is written field by field into its
// slot of buf, a basic block at a time. Where buf ends never shows in the
// stream — the interpreter state between two calls is the state between
// two instructions.
func (g *Generator) NextBatch(buf []isa.Inst) int {
	n := 0
	for n < len(buf) {
		if g.pendLen > 0 {
			op := g.pending[0]
			g.pending[0] = g.pending[1]
			g.pendLen--
			buf[n] = isa.Inst{Class: op.class, SyncID: op.id}
			g.seq++
			n++
			continue
		}
		if g.budget == 0 {
			break
		}
		if g.seq >= g.nextReset {
			g.resetChunk(g.seq / ChunkLen)
		}
		n += g.emitBlock(buf[n:])
	}
	return n
}

// emitBlock emits the next piece of the current basic block into buf and
// returns its length, at least 1: a run of body instructions, one
// serializing instruction, or the terminator. The program, function and
// block are resolved once here, not per instruction. A body run is bounded
// by the room in buf, the instructions left in the block body, the
// distance to the next chunk reset, the distance to the next serializing
// instruction and the budget; a kernel segment ends only between blocks,
// so it bounds nothing here and kernLeft is charged once per piece. The
// caller guarantees len(buf) > 0, budget > 0 and seq < nextReset.
func (g *Generator) emitBlock(buf []isa.Inst) int {
	// Position the counter-based RNG on the first instruction's draw
	// window.
	g.rng.ctr = g.seq * drawStride
	if g.kernel != nil && g.pos == 0 {
		g.kernelEdge()
	}
	prog, cur := g.user, &g.cur
	if g.inKernel {
		prog, cur = g.kernel, &g.kcur
	}
	fn := &prog.funcs[cur.fn]
	bl := &fn.blocks[cur.block]

	n := 1
	switch {
	case g.pos == bl.bodyLen:
		g.emitTerminator(&buf[0], prog, fn, bl, cur)
		g.pos = 0
	case g.untilSerialize == 0:
		g.untilSerialize = g.serializePeriod()
		buf[0] = isa.Inst{Class: isa.Serializing, PC: bl.startPC + uint64(g.pos)*4}
		g.pos++
	default:
		n = min(len(buf), bl.bodyLen-g.pos)
		if left := g.nextReset - g.seq; left < uint64(n) {
			n = int(left)
		}
		if g.budget < uint64(n) {
			n = int(g.budget)
		}
		if g.sync {
			n = 1 // accountSync may queue an instruction behind each one
		}
		if g.untilSerialize > 0 {
			n = min(n, g.untilSerialize)
			g.untilSerialize -= n
		}
		seq, pc, ctr := g.seq, bl.startPC+uint64(g.pos)*4, g.rng.ctr
		for out := buf[:n]; ; {
			ctr = g.emitBody(&out[0], pc, ctr)
			if out = out[1:]; len(out) == 0 {
				break
			}
			seq++
			pc += 4
			ctr = seq * drawStride
		}
		g.rng.ctr = ctr // the last instruction's window, for the draw-budget audit
		g.pos += n
	}
	if g.functional {
		// The emitters keep the dataflow state that decides draw counts
		// (the ring, lastLoad) exactly as in the full stream; what they
		// wrote of it into the piece is dropped here.
		for i := range buf[:n] {
			buf[i].Src1, buf[i].Src2, buf[i].Dst = isa.RegNone, isa.RegNone, isa.RegNone
		}
	}
	g.seq += uint64(n)
	g.budget -= uint64(n)
	if g.inKernel {
		g.kernLeft -= n
	}
	if g.sync {
		g.accountSync()
	}
	return n
}

// kernelEdge possibly enters or leaves a system-code segment between
// blocks; its draws open the window of the block's first instruction.
func (g *Generator) kernelEdge() {
	if g.inKernel {
		if g.kernLeft <= 0 {
			g.inKernel = false
			g.untilSerialize = g.serializePeriod()
		}
	} else if g.rng.next() < g.kernCut {
		g.inKernel = true
		g.kernLeft = 200 + g.kernSeg.sample(&g.rng)
		g.kcur = frame{}
		g.untilSerialize = g.serializePeriod()
	}
}

// accountSync updates barrier/lock bookkeeping after a synthesized
// instruction and queues any synchronization instructions that must follow
// it (at most two: a barrier, and a lock acquire or release). Its draws
// come from the sequential syncRng: profiles with synchronization structure
// are pinned to sequential generation (see Skippable), so the schedule
// needs no jump-ahead. Profiles without barriers and locks never get here.
func (g *Generator) accountSync() {
	p := g.p
	if p.BarrierEvery > 0 && g.budget > 0 {
		g.sinceBarrier++
		if g.sinceBarrier >= g.barrierAt && g.critLeft == 0 {
			g.sinceBarrier = 0
			g.queueSync(isa.BarrierArrive, 0)
		}
	}
	if p.LockEvery > 0 && p.Locks > 0 {
		if g.critLeft > 0 {
			g.critLeft--
			if g.critLeft == 0 {
				g.queueSync(isa.LockRelease, g.heldLock)
			}
		} else {
			g.untilLock--
			if g.untilLock <= 0 {
				g.untilLock = p.LockEvery/2 + g.syncRng.Intn(p.LockEvery)
				g.heldLock = uint16(g.syncRng.Intn(p.Locks))
				g.critLeft = 1 + g.critLen.sample(g.syncRng)
				g.queueSync(isa.LockAcquire, g.heldLock)
			}
		}
	}
}

func (g *Generator) queueSync(class isa.Class, id uint16) {
	g.pending[g.pendLen] = syncOp{class: class, id: id}
	g.pendLen++
}

// emitTerminator interprets the block's terminator, moving cur to the
// next block, and writes the control instruction into out.
func (g *Generator) emitTerminator(out *isa.Inst, prog *program, fn *function, bl *block, cur *frame) {
	out.PC, out.Addr, out.SyncID = bl.startPC+uint64(bl.bodyLen)*4, 0, 0
	out.Src1, out.Src2, out.Dst, out.Taken = isa.RegNone, isa.RegNone, isa.RegNone, true
	stack := &g.callStack
	if g.inKernel {
		stack = &g.kstack
	}
	switch bl.term {
	case termCall:
		if len(*stack) < 64 {
			*stack = append(*stack, frame{fn: cur.fn, block: nextBlock(fn, cur.block)})
			cur.fn = bl.callee
			cur.block = 0
		} else {
			cur.block = nextBlock(fn, cur.block)
		}
		out.Class = isa.Call
		out.Target = prog.funcs[cur.fn].entry
		out.Src1, g.rng.ctr = g.pickSrc(g.rng.ctr)
	case termRet:
		if len(*stack) > 0 {
			*cur = (*stack)[len(*stack)-1]
			*stack = (*stack)[:len(*stack)-1]
		} else {
			cur.block = 0 // outermost loop: restart the function
		}
		out.Class = isa.Return
		out.Target = prog.funcs[cur.fn].blocks[cur.block].startPC
	default:
		site := &fn.sites[bl.site]
		if g.evalSite(site) {
			if site.kind == siteLoop {
				// New iteration: values of the previous iteration
				// are dead; only the accumulator chain persists.
				g.ringLen = 0
			}
			cur.block = site.target
		} else {
			out.Taken = false
			cur.block = nextBlock(fn, cur.block)
		}
		out.Class = isa.Branch
		out.Target = fn.blocks[cur.block].startPC
		out.Src1, g.rng.ctr = g.pickSrc(g.rng.ctr)
	}
}

func nextBlock(fn *function, blockIdx int) int {
	if blockIdx+1 < len(fn.blocks) {
		return blockIdx + 1
	}
	return 0
}

func (g *Generator) evalSite(s *branchSite) bool {
	switch s.kind {
	case siteLoop:
		s.count++
		if s.count < s.trip {
			return true
		}
		s.count = 0
		return false
	default:
		return g.rng.next() < s.cut
	}
}

// accumReg is the loop-carried accumulator register.
const accumReg = 7

// aluClass maps the class-select index (how many of the five cumulative
// cut points the draw reached) to the class of a non-memory instruction.
var aluClass = [6]isa.Class{2: isa.IntMul, 3: isa.IntDiv, 4: isa.FPOp, 5: isa.IntALU}

// b2i is the compiler-recognized branch-free bool-to-int.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// emitBody synthesizes one non-control instruction at pc into out
// according to the mix, drawing from counter ctr on, and returns the
// advanced counter. The order of the draws is stream format v3.
func (g *Generator) emitBody(out *isa.Inst, pc, ctr uint64) uint64 {
	key := g.rng.key
	out.PC, out.Addr, out.Target = pc, 0, 0
	out.SyncID, out.Taken = 0, false
	if g.chainCut != 0 {
		u := ctrDraw(key, ctr)
		ctr++
		if u < g.chainCut {
			// Extend the loop-carried chain: acc = f(acc, recent value).
			// Floating-point codes accumulate through the FP pipeline
			// (reductions, recurrences), integer codes through the ALU.
			out.Class, out.Src1, out.Dst = g.chainClass, accumReg, accumReg
			out.Src2, ctr = g.pickSrc(ctr)
			return ctr
		}
	}
	// Class select without a compare chain: the cut points are cumulative,
	// so the number the draw reaches is the index of the first it is below.
	u := ctrDraw(key, ctr)
	ctr++
	k := b2i(u >= g.cutLoad) + b2i(u >= g.cutStore) + b2i(u >= g.cutMul) +
		b2i(u >= g.cutDiv) + b2i(u >= g.cutFP)
	switch k {
	case 0:
		return g.emitLoad(out, ctr)
	case 1:
		out.Class, out.Dst = isa.Store, isa.RegNone
		out.Addr, _, ctr = g.pickAddr(false, ctr)
		out.Src1, ctr = g.pickSrc(ctr)
		out.Src2, ctr = g.pickSrc(ctr)
	default:
		out.Class = aluClass[k]
		out.Src1, ctr = g.pickSrc(ctr)
		out.Src2, ctr = g.pickSrc(ctr)
		out.Dst = g.allocDst()
	}
	return ctr
}

// emitLoad finishes a load: the address, its base register, and the
// region's chance of turning the access into a store.
func (g *Generator) emitLoad(out *isa.Inst, ctr uint64) uint64 {
	key := g.rng.key
	chase := false
	if g.lastLoad != isa.RegNone && g.chaseCut != 0 {
		chase = ctrDraw(key, ctr) < g.chaseCut
		ctr++
	}
	var reg *regionState
	out.Addr, reg, ctr = g.pickAddr(chase, ctr)
	switch {
	case chase:
		// Pointer chase: address depends on the previous load.
		out.Src1 = g.lastLoad
	case reg != nil && reg.stride > 0:
		// Streaming access: the address comes from an induction
		// variable, long since computed — independent of recent
		// results, which is what gives streaming codes their MLP.
		out.Src1 = uint8(ctrDraw(key, ctr) & 7)
		ctr++
	case reg != nil && reg.writeCut != 0:
		// The write-cut draw below sits behind this pick, so how many
		// draws the pick takes matters even to a functional stream.
		out.Src1, ctr = g.drawSrc(ctr)
	default:
		out.Src1, ctr = g.pickSrc(ctr)
	}
	// Shared regions with a write fraction convert some of their
	// accesses into stores (coherence/invalidation traffic).
	if reg != nil && reg.writeCut != 0 {
		u := ctrDraw(key, ctr)
		ctr++
		if u < reg.writeCut {
			out.Class, out.Dst = isa.Store, isa.RegNone
			out.Src2, ctr = g.pickSrc(ctr)
			return ctr
		}
	}
	dst := g.allocDst()
	g.lastLoad = dst
	out.Class, out.Src2, out.Dst = isa.Load, isa.RegNone, dst
	return ctr
}

// pickAddr chooses an effective address and returns it with its region
// (nil for a profile without regions). chase keeps the access in the same
// region as the previous one (dependent pointer walk).
func (g *Generator) pickAddr(chase bool, ctr uint64) (uint64, *regionState, uint64) {
	if len(g.regions) == 0 {
		return g.slotBase + 0x10000000000, nil, ctr
	}
	key := g.rng.key
	if !chase {
		u := ctrDraw(key, ctr)
		ctr++
		idx := 0
		for idx < len(g.regions)-1 && u >= g.regions[idx].cut {
			idx++
		}
		g.lastRegion = idx
	}
	reg := &g.regions[g.lastRegion]
	var off uint64
	if reg.stride > 0 {
		off = reg.cursor + reg.stride
		if reg.sizeMask != 0 {
			off &= reg.sizeMask
		} else {
			off %= reg.size
		}
		reg.cursor = off
	} else {
		line := ctrDraw(key, ctr) >> 1
		if reg.lineMask != 0 {
			line &= reg.lineMask
		} else {
			line %= reg.lines
		}
		off = line*64 + (ctrDraw(key, ctr+1)&7)*8
		ctr += 2
	}
	return reg.base + off, reg, ctr
}

// pickSrc picks a source register where no later draw of the instruction
// depends on how many draws the pick takes — everywhere but a load's base
// register in a region with a write cut. A functional stream skips these
// picks.
func (g *Generator) pickSrc(ctr uint64) (uint8, uint64) {
	if g.functional {
		return isa.RegNone, ctr
	}
	return g.drawSrc(ctr)
}

// drawSrc picks a source register with a geometric dependence distance
// over recently written registers: one alias-table probe, a pure function
// of one draw — this is the hottest draw in the generator, reached by
// nearly every synthesized instruction. Distances beyond the ring, and an
// empty ring, resolve to an ambient register with one further draw.
func (g *Generator) drawSrc(ctr uint64) (uint8, uint64) {
	if g.ringLen != 0 {
		d := 0
		if g.depDist != nil {
			d = g.depDist.pick(ctrDraw(g.rng.key, ctr))
			ctr++
		}
		if d < g.ringLen {
			return g.ring[(g.ringHead-1-d)&(len(g.ring)-1)], ctr
		}
	}
	return uint8(ctrDraw(g.rng.key, ctr) & 7), ctr + 1
}

func (g *Generator) allocDst() uint8 {
	dst := g.nextDst
	g.nextDst++
	if g.nextDst >= isa.NumRegs {
		g.nextDst = 8
	}
	g.ring[g.ringHead] = dst
	g.ringHead = (g.ringHead + 1) & (len(g.ring) - 1)
	if g.ringLen < len(g.ring) {
		g.ringLen++
	}
	return dst
}
