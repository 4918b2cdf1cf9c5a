package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// draws is the differential test's source of choices: the fuzzer's bytes
// first, so that mutating them moves the machine shape and the head of the
// stream directly, then a seeded generator for the rest.
type draws struct {
	data []byte
	rng  *rand.Rand
}

// n returns a choice in [0, max).
func (d *draws) n(max int) int {
	if len(d.data) > 0 && max <= 256 {
		b := d.data[0]
		d.data = d.data[1:]
		return int(b) % max
	}
	return d.rng.Intn(max)
}

func (d *draws) chance(pct int) bool { return d.n(100) < pct }

// scanCase is one differential run: a machine, ablation options and a
// stream. The first five draws are selectors, in this order — ROB size,
// outstanding-miss budget, ablation, stream flavour, stream length — so a
// corpus entry can name its shape in five bytes.
type scanCase struct {
	machine config.Machine
	opts    Options
	stream  []isa.Inst
	// everyCycle steps global time by one instead of jumping to
	// NextActive, so the core is also stepped in the cycles it sleeps
	// through, where Step must change nothing.
	everyCycle bool
}

// flavour weights the stream generator towards one of the situations the
// scan frontier has to get right.
type flavour struct {
	load, store, branch, serialize, sync int // class shares in percent; the rest is ALU/FP
	chain                                int // a load reads the previous load's destination
	far                                  int // a data address misses the TLB and every cache
	alias                                int // a load reads the line of a recent store
}

var flavours = []flavour{
	{load: 22, store: 12, branch: 14, serialize: 1, sync: 1, chain: 20, far: 30, alias: 25}, // mixed
	{load: 30, store: 22, branch: 6, chain: 70, far: 45, alias: 60},                         // pointer chase, tainted stores aliasing later loads
	{load: 45, store: 4, branch: 4, chain: 2, far: 85, alias: 5},                            // independent misses: the budget runs out
	{load: 20, store: 10, branch: 8, serialize: 6, sync: 6, chain: 25, far: 40, alias: 25},  // serializing and sync entries inside the window
	{load: 18, store: 6, branch: 34, chain: 40, far: 40, alias: 20},                         // dependent and independent mispredictions
}

func drawScanCase(d *draws) scanCase {
	m := config.Default(1)
	m.Core.ROBSize = []int{3, 256, 1000, 8, 32, 17, 64, 128}[d.n(8)]
	m.Core.MaxOutstandingMisses = []int{0, 1, 2, 3, 8}[d.n(5)]
	var opts Options
	switch d.n(11) {
	case 5:
		opts.NoROBFillHiding = true
	case 6:
		opts.FlushOldWindow = true
	case 7:
		opts.NoOverlapScan = true
	case 8:
		opts.NoTaint = true
	case 9:
		opts.NoDispatchFloor = true
	case 10:
		opts = Options{NoROBFillHiding: true, FlushOldWindow: true, NoTaint: true, NoDispatchFloor: true}
	}
	fl := flavours[d.n(len(flavours))]
	// Shorter than the window, a few windows, many windows.
	n := []int{m.Core.ROBSize/2 + 2, 300, 1200, 4000, 2*m.Core.ROBSize + 50}[d.n(5)]

	// Small caches and TLBs: long-latency loads arrive every few dozen
	// instructions, back to back on the far addresses.
	m.Mem.L1I = config.Cache{SizeBytes: 1 << 10, Assoc: 2, LineSize: 64, Latency: 1}
	m.Mem.L1D = config.Cache{SizeBytes: 1 << 10, Assoc: 2, LineSize: 64, Latency: 2}
	m.Mem.L2 = config.Cache{SizeBytes: 8 << 10, Assoc: 4, LineSize: 64, Latency: 12}
	m.Mem.DTLB.Entries = 8
	m.Mem.ITLB.Entries = 8
	m.Branch.Kind = []string{"local", "bimodal", "gshare", "perfect"}[d.n(4)]
	m.Core.DecodeWidth = 1 + d.n(6)
	return scanCase{machine: m, opts: opts, stream: drawScanStream(d, fl, n), everyCycle: d.chance(15)}
}

func drawScanStream(d *draws, fl flavour, n int) []isa.Inst {
	// Operands are what a trace.Stream may carry: an id below
	// isa.NumRegs, or isa.RegNone.
	reg := func() uint8 {
		switch {
		case d.chance(20):
			return isa.RegNone
		case d.chance(4):
			return 63
		}
		return uint8(8 + d.n(6))
	}
	addr := func() uint64 {
		if d.chance(fl.far) {
			return 0x1000_0000 + uint64(d.n(200))<<13 + uint64(d.n(64))<<6
		}
		return 0x2000_0000 + uint64(d.n(24))<<6 + uint64(d.n(8))*8
	}
	out := make([]isa.Inst, 0, n)
	pc := uint64(0x40_0000)
	var stores [4]uint64 // lines recently stored to
	lastLoadDst := uint8(isa.RegNone)
	for len(out) < n {
		in := isa.Inst{PC: pc, Src1: reg(), Src2: reg(), Dst: reg()}
		pc += 4
		k := d.n(100)
		switch {
		case k < fl.load:
			in.Class = isa.Load
			in.Addr = addr()
			if s := stores[d.n(len(stores))]; s != 0 && d.chance(fl.alias) {
				in.Addr = s<<6 + uint64(d.n(8))*8
			}
			if d.chance(fl.chain) {
				in.Src1 = lastLoadDst
			}
			lastLoadDst = in.Dst
		case k < fl.load+fl.store:
			in.Class = isa.Store
			in.Addr = addr()
			in.Dst = isa.RegNone
			if d.chance(fl.chain) {
				in.Src1 = lastLoadDst
			}
			stores[d.n(len(stores))] = in.Addr >> 6
		case k < fl.load+fl.store+fl.branch:
			in.Class = []isa.Class{isa.Branch, isa.Branch, isa.Call, isa.Return}[d.n(4)]
			if !d.chance(30) { // the rest write a link register
				in.Dst = isa.RegNone
			}
			if d.chance(fl.chain) {
				in.Src1 = lastLoadDst
			}
			in.Taken = in.Class != isa.Branch || d.chance(50)
			if in.Taken {
				in.Target = 0x40_0000 + uint64(d.n(6))<<9 + uint64(d.n(16))*4
				if d.chance(5) {
					in.Target += uint64(d.n(200)) << 14 // a cold I-side page
				}
				pc = in.Target
			}
		case k < fl.load+fl.store+fl.branch+fl.serialize:
			in.Class = isa.Serializing
		case k < fl.load+fl.store+fl.branch+fl.serialize+fl.sync:
			in.Class = []isa.Class{isa.BarrierArrive, isa.LockAcquire, isa.LockRelease}[d.n(3)]
			in.SyncID = uint16(d.n(4))
		default:
			in.Class = []isa.Class{isa.IntALU, isa.IntALU, isa.IntMul, isa.FPOp}[d.n(4)]
		}
		out = append(out, in)
	}
	return out
}

// stallSyncer refuses each synchronization instruction for a number of
// cycles fixed by its ordinal among the stream's sync instructions, counted
// from the first request, so a blocked core polls with a scanned window
// behind the sync entry. The core re-requests the instruction it is blocked
// on until it proceeds, so a request after a refusal is the same
// instruction and any other request is the next one.
type stallSyncer struct {
	n       uint64 // ordinal of the current sync instruction
	t0      int64  // cycle of its first request
	blocked bool   // the last request was refused
}

func (s *stallSyncer) Sync(_ int, in *isa.Inst, now int64) sim.SyncDecision {
	if !s.blocked {
		s.n++
		s.t0 = now
	}
	h := (s.n*2654435761 + uint64(in.SyncID)) >> 3
	if s.blocked = now < s.t0+int64(h%9); s.blocked {
		return sim.SyncDecision{}
	}
	return sim.SyncDecision{Proceed: true, Latency: int64(h % 4)}
}

// scanSide is one of the two machines of a differential run.
type scanSide struct {
	core *Core
	mem  *memhier.Hierarchy
	bp   *branch.Unit
}

func newScanSide(sc scanCase, ref bool) scanSide {
	s := scanSide{
		mem: memhier.New(1, sc.machine.Mem, memhier.Perfect{}),
		bp:  branch.NewUnit(sc.machine.Branch),
	}
	s.core = New(0, sc.machine.Core, sc.opts, s.bp, s.mem,
		trace.NewSliceStream(sc.stream), &stallSyncer{})
	if ref {
		s.core.refScan = refScanOverlap
	}
	return s
}

// scanObs is everything the two sides must agree on after every Step,
// besides the flags ring.
type scanObs struct {
	coreTime, cycles, finish int64
	retired                  uint64
	done                     bool
	events                   [4]uint64
	hidden, overlapLL        uint64
	scanBreaks               uint64
	stack                    CPIStack
	intervals                IntervalStats
	mem                      memhier.AccessStats
	lookups, mispredicts     uint64
}

func (s scanSide) observe() scanObs {
	c := s.core
	return scanObs{
		coreTime: c.coreTime, cycles: c.Cycles, finish: c.finishTime,
		retired: c.retired, done: c.done,
		events: [4]uint64{c.ICacheEvents, c.BranchEvents, c.LongLoadEvents, c.SerializeEvents},
		hidden: c.OverlapHidden, overlapLL: c.OverlapLL, scanBreaks: c.ScanBreaks,
		stack: c.Stack(), intervals: c.intervals,
		mem: s.mem.Stats(), lookups: s.bp.Lookups, mispredicts: s.bp.Mispredictions,
	}
}

// machineState renders the end-of-run counters below the access statistics:
// the two sides can only agree on them by making the same calls in the same
// order.
func (s scanSide) machineState() string {
	l1i, l1d, l2 := s.mem.L1I(0), s.mem.L1D(0), s.mem.L2()
	return fmt.Sprintf("dram %+v fabric tx %d stall %d l1i %d/%d l1d %d/%d wb %d l2 %d/%d",
		s.mem.DRAM().Stats(), s.mem.Fabric().Transactions, s.mem.Fabric().StallTotal,
		l1i.Hits, l1i.Misses, l1d.Hits, l1d.Misses, l1d.WriteBack, l2.Hits, l2.Misses)
}

// checkFrontier holds the core to what the first phase of the scan relies
// on: between the head and the frontier every entry has been visited (its
// I-side mark is set, a branch has been checked, none is serializing or a
// sync) and carries the scan record its instruction and flags imply.
func checkFrontier(t *testing.T, c *Core) {
	t.Helper()
	if tail := c.retired + uint64(c.winLen); c.frontier > tail {
		t.Fatalf("frontier %d beyond the window tail %d", c.frontier, tail)
	}
	for i := 1; c.retired+uint64(i) < c.frontier; i++ {
		idx := (c.fhead + i) & c.fmask
		in, fl := &c.fbuf[idx], c.flags[idx]
		if in.Class == isa.Serializing || in.Class.IsSync() {
			t.Fatalf("entry %d before the frontier is %v", i, in.Class)
		}
		if fl&flagIOv == 0 || (in.Class.IsBranch() && fl&flagBrChecked == 0) {
			t.Fatalf("entry %d (%v) before the frontier has flags %05b", i, in, fl)
		}
		want := scanRec(in)
		if fl&flagDOv != 0 {
			want &^= recPending
		}
		if c.recs[idx] != want {
			t.Fatalf("entry %d (%v, flags %05b) has scan record %#x, want %#x", i, in, fl, c.recs[idx], want)
		}
	}
}

// checkScanMatchesReference steps a core with the two-phase scan and one
// with the reference scan side by side over the same stream, each on its own
// hierarchy and predictor, and requires them to be indistinguishable after
// every Step.
func checkScanMatchesReference(t *testing.T, sc scanCase) *Core {
	t.Helper()
	ref, got := newScanSide(sc, true), newScanSide(sc, false)
	describe := func() string {
		return fmt.Sprintf("ROB %d maxLL %d width %d options %s predictor %s, %d instructions",
			sc.machine.Core.ROBSize, sc.machine.Core.MaxOutstandingMisses, sc.machine.Core.DecodeWidth,
			sc.opts.Name(), sc.machine.Branch.Kind, len(sc.stream))
	}
	var now int64
	for steps := 0; !ref.core.Done(); steps++ {
		scans := got.core.LongLoadEvents
		ref.core.Step(now)
		got.core.Step(now)
		if r, g := ref.observe(), got.observe(); r != g {
			t.Fatalf("cycle %d:\nreference %+v\ncore      %+v\n%s", now, r, g, describe())
		}
		if !bytes.Equal(ref.core.flags, got.core.flags) {
			t.Fatalf("cycle %d: window marks differ\n%s", now, describe())
		}
		if got.core.LongLoadEvents != scans {
			checkFrontier(t, got.core)
		}
		next := ref.core.NextActive(now + 1)
		if g := got.core.NextActive(now + 1); g != next {
			t.Fatalf("cycle %d: NextActive %d, reference %d\n%s", now, g, next, describe())
		}
		if sc.everyCycle {
			next = now + 1
		}
		now = next
		if steps > 5_000_000 {
			t.Fatalf("reference did not finish\n%s", describe())
		}
	}
	if r, g := ref.machineState(), got.machineState(); r != g {
		t.Fatalf("machine state differs\nreference: %s\ncore:      %s\n%s", r, g, describe())
	}
	return got.core
}

func TestScanMatchesReference(t *testing.T) {
	cases := 600
	if testing.Short() {
		cases = 100
	}
	var scans, hidden, ll, breaks uint64
	for seed := 0; seed < cases; seed++ {
		d := &draws{rng: rand.New(rand.NewSource(int64(seed)))}
		sc := drawScanCase(d)
		c := checkScanMatchesReference(t, sc)
		if !sc.opts.NoOverlapScan {
			scans += c.LongLoadEvents
		}
		hidden += c.OverlapHidden
		ll += c.OverlapLL
		breaks += c.ScanBreaks
	}
	// The comparison is only worth its name if the cases scan, overlap
	// and stop at branches.
	if scans < 1000 || hidden < 4*scans || ll < scans/4 || breaks < scans/50 {
		t.Fatalf("%d cases reached %d scans, %d hidden events, %d overlapped misses, %d scan breaks",
			cases, scans, hidden, ll, breaks)
	}
}

// TestScanMatchesReferenceOnProfiles runs the comparison at the Table 1
// sizes over the generator's own mcf- and art-like streams, where a scan
// covers most of a 256-entry window and the frontier is a few entries from
// the tail.
func TestScanMatchesReferenceOnProfiles(t *testing.T) {
	for _, name := range []string{"mcf", "art", "gcc"} {
		sc := scanCase{machine: config.Default(1), stream: profileStream(name, 30_000)}
		checkScanMatchesReference(t, sc)
	}
}

func profileStream(name string, n int) []isa.Inst {
	return trace.Record(workload.New(workload.SPECByName(name), 0, 1, 42), n)
}

// FuzzScanMatchesReference explores machine shapes and stream heads from the
// fuzzer's bytes (see draws and scanCase; the named shapes are in
// testdata/fuzz). Runs under -race in CI.
func FuzzScanMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) > 4096 {
			shape = shape[:4096]
		}
		d := &draws{data: shape, rng: rand.New(rand.NewSource(seed))}
		checkScanMatchesReference(t, drawScanCase(d))
	})
}
