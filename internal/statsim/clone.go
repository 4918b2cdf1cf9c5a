package statsim

import (
	"math/rand"
	"slices"

	"repro/internal/isa"
	"repro/internal/trace"
)

// hotLines is the size of the clone's recently-touched-line ring; small
// enough (8KB) that re-references hit the L1D.
const hotLines = 128

// warmPoolMax bounds the clone's warm data region to the shared L2
// capacity in lines (4MB / 64B), so warm re-references hit the L2 but
// mostly miss the 32KB L1D.
const warmPoolMax = 65536

// hotCodeLines is the clone's hot code loop (4KB, comfortably inside the
// L1I).
const hotCodeLines = 64

// depSlots is the length of the clone's synthetic loop body in static
// instruction positions.
const depSlots = 64

// Clone is a synthetic instruction stream generated from a statistical
// profile. By construction it reproduces the profiled instruction mix,
// register dependence-distance distribution, branch taken/repeat behaviour
// (a two-state Markov chain per static branch) and cache hit rates (a
// hot/warm/cold locality mixture, the profile-carries-cache-behaviour
// approach of the statistical simulation literature). It implements
// trace.Stream and is deterministic for a given (profile, length, seed).
//
// The clone is a single thread: synchronization classes in the profile
// are re-mapped to plain serializing instructions, so clones are run
// single-threaded (the multi-threaded extension of statistical simulation
// is out of scope here, as it was for the paper's related-work baselines).
type Clone struct {
	p    *Profile
	rng  *rand.Rand
	left int

	seq uint64

	classCDF []float64
	depCDF   []float64

	// Dependence slots: a synthetic "loop body" of depSlots static
	// instruction positions, each with dependence distances drawn once
	// from the profiled histogram. Cycling through fixed per-slot
	// distances reproduces the histogram marginally while keeping the
	// chain structure periodic — parallel chains, as in real loops —
	// instead of the one deep random chain i.i.d. sampling produces.
	slotD1   [depSlots]int
	slotHas2 [depSlots]bool
	slotD2   [depSlots]int

	// Dependence ring: the destination registers of the most recent
	// writing instructions and the sequence numbers at which they wrote.
	wrRegs  [MaxDepDist]uint8
	wrSeqs  [MaxDepDist]uint64
	wrPos   int
	wrN     int
	nextDst uint8
	// lastLoadDst is the destination of the most recent load, for
	// reproducing the profiled pointer-chase (load-address-depends-on-
	// load) fraction; RegNone before the first load.
	lastLoadDst uint8
	chaseRate   float64

	// Branch state: a two-state Markov chain per static branch whose
	// transition probabilities reproduce that branch's profiled taken
	// rate (stationary distribution) and repeat rate (self-transition
	// mass). Dynamic branches sample statics by profiled frequency.
	branchPCs   []uint64
	branchPrev  []bool
	branchLeave [][2]float64 // [prev-taken, prev-not-taken] leave probs
	branchCDF   []float64

	// Data locality mixture. Warm and cold references walk sequentially
	// (page-local, like the array sweeps they stand in for) so that the
	// clone reproduces cache hit rates without destroying TLB locality.
	pL1, pL2  float64
	pColdIn   float64 // per-access probability of entering a cold burst
	burst     int     // cold-burst length
	burstLeft int     // remaining forced-cold accesses
	hot       [hotLines]int64
	hotN      int
	hotPos    int
	warmPool  int64
	warmPtr   int64
	freshLine int64

	// Code locality: a hot loop plus cold-line jumps at the profiled
	// I-miss rate. Cold code sweeps a bounded region cyclically — real
	// code is reused, so cold fetches miss the L1I but settle in the L2
	// after the first sweep.
	iMiss     float64
	pcLine    uint64
	pcSlot    uint64
	coldCode  uint64
	coldLines uint64
}

// NewClone creates a synthetic stream of n instructions from p.
func NewClone(p *Profile, n int, seed int64) *Clone {
	c := &Clone{
		p:    p,
		rng:  rand.New(rand.NewSource(seed)),
		left: max(n, 0),
	}
	c.classCDF = cdf(p.ClassCount[:])
	c.depCDF = cdf(p.DepDist[:])

	statics := p.Branches
	if len(statics) == 0 {
		statics = []StaticBranch{{Count: 1, Taken: 1, Repeats: 1}}
	}
	c.branchPCs = make([]uint64, len(statics))
	c.branchPrev = make([]bool, len(statics))
	c.branchLeave = make([][2]float64, len(statics))
	counts := make([]uint64, len(statics))
	for i, b := range statics {
		c.branchPCs[i] = 0x500000 + uint64(i)*64
		c.branchPrev[i] = c.rng.Float64() < b.TakenRate()
		lt, ln := markovLeaveRates(b.TakenRate(), b.RepeatRate())
		c.branchLeave[i] = [2]float64{lt, ln}
		counts[i] = b.Count
	}
	c.branchCDF = cdf(counts)

	c.pL1 = p.L1DHitRate()
	c.pL2 = p.L2DHitRate()
	c.burst = int(p.MeanBurst() + 0.5)
	if c.burst < 1 {
		c.burst = 1
	}
	// Cap the burst at the MLP-relevant scale: one reorder-buffer window
	// can overlap at most a handful of misses, so longer profiled
	// clusters (continuous miss streams) gain nothing from being fused
	// into one burst, and short clones need bursts frequent enough for
	// the cold rate to be stable over their length.
	if c.burst > 8 {
		c.burst = 8
	}
	c.pColdIn = (1 - c.pL1 - c.pL2) / float64(c.burst)
	c.warmPool = int64(p.DataLines)
	if c.warmPool > warmPoolMax {
		c.warmPool = warmPoolMax
	}
	if c.warmPool < 1 {
		c.warmPool = 1
	}
	c.freshLine = 1 << 30 // far beyond the warm region
	c.iMiss = p.IMissRate()
	c.coldLines = uint64(p.CodeLines)
	if c.coldLines <= hotCodeLines {
		c.coldLines = hotCodeLines + 1
	}
	if c.coldLines > 2048 {
		c.coldLines = 2048
	}
	c.coldCode = hotCodeLines
	c.nextDst = 8
	c.lastLoadDst = isa.RegNone
	c.chaseRate = p.LoadLoadRate()

	pair := c.srcPairRate()
	for i := 0; i < depSlots; i++ {
		c.slotD1[i] = c.sampleDist()
		c.slotHas2[i] = c.rng.Float64() < pair
		c.slotD2[i] = c.sampleDist()
	}
	return c
}

// sampleDist draws one dependence distance from the profiled histogram.
func (c *Clone) sampleDist() int {
	d := c.sample(c.depCDF)
	if d == 0 {
		d = 1
	}
	return d
}

// markovLeaveRates derives the per-state leave probabilities of a
// two-state Markov chain whose stationary taken probability is t and
// whose expected self-transition (repeat) mass is r.
func markovLeaveRates(t, r float64) (leaveTaken, leaveNot float64) {
	if t <= 0 || t >= 1 {
		return 0, 0 // constant-outcome branches never leave their state
	}
	s := (1 - r) / (2 * t * (1 - t))
	leaveTaken = (1 - t) * s
	leaveNot = t * s
	if leaveTaken > 1 {
		leaveTaken = 1
	}
	if leaveNot > 1 {
		leaveNot = 1
	}
	return leaveTaken, leaveNot
}

// cdf builds a cumulative distribution over counts, or a uniform one when
// the counts are all zero.
func cdf(counts []uint64) []float64 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		for i := range out {
			out[i] = float64(i+1) / float64(len(out))
		}
		return out
	}
	acc := 0.0
	for i, c := range counts {
		acc += float64(c) / float64(total)
		out[i] = acc
	}
	out[len(out)-1] = 1
	return out
}

// sample draws an index from cdf: the first whose cumulative mass reaches
// a uniform draw, found by bisection (a branch CDF has up to
// maxStaticBranches entries).
func (c *Clone) sample(cdf []float64) int {
	i, _ := slices.BinarySearch(cdf, c.rng.Float64())
	return min(i, len(cdf)-1)
}

// NextBatch implements trace.Stream.
func (c *Clone) NextBatch(buf []isa.Inst) int {
	n := min(len(buf), c.left)
	for i := range buf[:n] {
		c.next(&buf[i])
	}
	c.left -= n
	return n
}

// next generates the clone's next instruction into in.
func (c *Clone) next(in *isa.Inst) {
	class := isa.Class(c.sample(c.classCDF))
	if class.IsSync() {
		class = isa.Serializing
	}
	if class == isa.Call || class == isa.Return {
		class = isa.Branch // calls/returns fold into plain branches
	}

	*in = isa.Inst{
		Class: class,
		PC:    c.nextPC(),
		Src1:  isa.RegNone,
		Src2:  isa.RegNone,
		Dst:   isa.RegNone,
	}

	chase := class == isa.Load && c.lastLoadDst != isa.RegNone &&
		c.rng.Float64() < c.chaseRate
	if class != isa.Serializing {
		slot := int(c.seq % depSlots)
		if slot == 0 {
			// Synthetic loop boundary: values of the previous
			// iteration are dead (registers get rewritten before
			// reuse in real loop code), so chains do not concatenate
			// across iterations. Without this the slot structure
			// welds one ever-deepening chain through the stream.
			c.wrN = 0
		}
		if chase {
			// Pointer chase: the address source is the previous
			// load's result, so the two misses serialize, as in the
			// profiled stream.
			in.Src1 = c.lastLoadDst
		} else {
			in.Src1 = c.srcAtDistance(c.slotD1[slot])
		}
		if c.slotHas2[slot] {
			in.Src2 = c.srcAtDistance(c.slotD2[slot])
		}
	}

	switch {
	case class == isa.Branch:
		idx := c.sample(c.branchCDF)
		in.PC = c.branchPCs[idx]
		prev := c.branchPrev[idx]
		leave := c.branchLeave[idx][0]
		if !prev {
			leave = c.branchLeave[idx][1]
		}
		in.Taken = prev
		if c.rng.Float64() < leave {
			in.Taken = !prev
		}
		c.branchPrev[idx] = in.Taken
		if in.Taken {
			in.Target = in.PC + 256
		}
	case class.IsMem():
		line := c.nextDataLine()
		in.Addr = uint64(line)*64 + uint64(c.rng.Intn(8))*8
		if class == isa.Load {
			in.Dst = c.allocDst()
			c.lastLoadDst = in.Dst
		}
	case class == isa.Serializing:
		// No operands.
	default:
		in.Dst = c.allocDst()
	}

	c.seq++
}

// nextPC advances the synthetic program counter: sequential slots within
// a hot code loop, with fresh-line jumps at the profiled I-miss rate.
func (c *Clone) nextPC() uint64 {
	if c.iMiss > 0 && c.rng.Float64() < c.iMiss {
		c.coldCode = hotCodeLines + (c.coldCode+1-hotCodeLines)%(c.coldLines-hotCodeLines)
		c.pcSlot = 0
		return 0x400000 + c.coldCode*64
	}
	pc := 0x400000 + c.pcLine*64 + c.pcSlot*4
	c.pcSlot++
	if c.pcSlot == 16 {
		c.pcSlot = 0
		c.pcLine = (c.pcLine + 1) % hotCodeLines
	}
	return pc
}

// nextDataLine samples the locality mixture: hot (L1-resident), warm
// (an L2-resident sequential sweep) or cold (a fresh-line sweep that
// misses below the L2). The warm and cold pointers walk line by line so
// consecutive references stay on the same page, as the array sweeps they
// stand in for do.
func (c *Clone) nextDataLine() int64 {
	var line int64
	cold := false
	if c.burstLeft > 0 {
		c.burstLeft--
		cold = true
	} else if c.rng.Float64() < c.pColdIn {
		c.burstLeft = c.burst - 1
		cold = true
	}
	switch {
	case cold:
		// Fresh lines, spaced a page apart within the burst so each
		// miss is a distinct DRAM access (the parallel array streams
		// the burst stands in for), sequential across bursts.
		c.freshLine++
		line = c.freshLine
	default:
		u := c.rng.Float64() * (c.pL1 + c.pL2)
		if u < c.pL1 && c.hotN > 0 {
			line = c.hot[c.rng.Intn(c.hotN)]
		} else {
			c.warmPtr = (c.warmPtr + 1) % c.warmPool
			line = c.warmPtr
		}
	}
	c.hot[c.hotPos] = line
	c.hotPos = (c.hotPos + 1) % hotLines
	if c.hotN < hotLines {
		c.hotN++
	}
	return line
}

// srcPairRate estimates how often instructions carry a second source
// operand, from the profiled operand count per instruction.
func (c *Clone) srcPairRate() float64 {
	if c.p.Total == 0 {
		return 0
	}
	per := float64(c.p.SrcOps) / float64(c.p.Total)
	if per <= 1 {
		return 0
	}
	if per >= 2 {
		return 1
	}
	return per - 1
}

// srcAtDistance returns the register written by the most recent producer
// at least d instructions back; the far/absent bucket reads a register
// outside the rotating destination pool.
func (c *Clone) srcAtDistance(d int) uint8 {
	if d >= MaxDepDist || c.wrN == 0 {
		return uint8(48 + c.rng.Intn(16))
	}
	target := int64(c.seq) - int64(d)
	// Walk the write ring from most recent backwards to the first write
	// at or before the target sequence number.
	for k := 1; k <= c.wrN; k++ {
		idx := (c.wrPos - k + MaxDepDist) % MaxDepDist
		if int64(c.wrSeqs[idx]) <= target {
			return c.wrRegs[idx]
		}
	}
	// All tracked writes are newer (e.g. right after a loop boundary):
	// the producer is long dead, so the value is ambient — independent.
	return uint8(48 + c.rng.Intn(16))
}

// allocDst picks the next destination register, cycling over a pool wide
// enough that unintended short dependences are rare, and records the
// write in the ring.
func (c *Clone) allocDst() uint8 {
	r := c.nextDst
	c.nextDst++
	if c.nextDst == 48 {
		c.nextDst = 8
	}
	c.wrRegs[c.wrPos] = r
	c.wrSeqs[c.wrPos] = c.seq
	c.wrPos = (c.wrPos + 1) % MaxDepDist
	if c.wrN < MaxDepDist {
		c.wrN++
	}
	return r
}

var _ trace.Stream = (*Clone)(nil)
