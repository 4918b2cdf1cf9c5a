package ooo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// draws is the differential test's source of choices: the fuzzer's bytes
// first, so that mutating them moves the machine shape and the head of the
// streams directly, then a seeded generator for the rest.
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

// in returns a choice in [lo, hi].
func (d *draws) in(lo, hi int) int { return lo + d.n(hi-lo+1) }

func (d *draws) chance(pct int) bool { return d.n(100) < pct }

// diffCase is one differential run: a small machine and one stream per
// core.
type diffCase struct {
	machine config.Machine
	perfect memhier.Perfect
	streams [][]isa.Inst
	// gaps makes global time jump now and then instead of advancing by
	// one, as a driver skipping idle time would.
	gaps bool
}

func drawCase(d *draws) diffCase {
	cores := 1 + d.n(2)
	m := config.Default(cores)
	c := &m.Core
	c.ROBSize = d.in(1, 32)
	c.IssueQueueSize = d.in(1, 16)
	c.LSQSize = d.in(1, 8)
	c.StoreBufferSize = d.in(1, 4)
	c.FetchQueue = d.in(1, 4)
	c.FrontendDepth = d.in(1, 7)
	c.DecodeWidth = d.in(1, 8)
	c.IssueWidth = d.in(1, 8)
	c.FetchWidth = d.in(1, 8)
	c.IntALUs = d.in(1, 4)
	c.LoadStoreFUs = d.in(1, 4)
	c.FPUnits = d.in(1, 4)
	switch d.n(4) { // one FU class with a single unit
	case 0:
		c.IntALUs = 1
	case 1:
		c.LoadStoreFUs = 1
	case 2:
		c.FPUnits = 1
	}
	if d.chance(10) {
		// Zero-latency ALU: a consumer may issue in its producer's cycle.
		c.LatIntALU = 0
	}
	if d.chance(50) {
		// Small caches, so that lines are evicted and the two cores
		// take lines from each other within a few hundred instructions.
		m.Mem.L1I = config.Cache{SizeBytes: 1 << 10, Assoc: 2, LineSize: 64, Latency: 1}
		m.Mem.L1D = config.Cache{SizeBytes: 1 << 10, Assoc: 2, LineSize: 64, Latency: 2}
		m.Mem.L2 = config.Cache{SizeBytes: 8 << 10, Assoc: 4, LineSize: 64, Latency: 12}
		m.Mem.DTLB.Entries = 8
		m.Mem.ITLB.Entries = 8
	}
	m.Branch.Kind = []string{"local", "bimodal", "gshare", "perfect"}[d.n(4)]
	dc := diffCase{machine: m, gaps: d.chance(20)}
	if d.chance(15) {
		dc.perfect = memhier.Perfect{ISide: d.chance(50), DSide: d.chance(50)}
	}
	for i := 0; i < cores; i++ {
		dc.streams = append(dc.streams, drawStream(d, d.in(50, 1200)))
	}
	return dc
}

// drawStream draws n instructions over every class. Registers come from a
// pool of six so that chains, dst = src and WAW reuse are common; data
// addresses from a pool of lines both cores share, with an occasional far
// page; branches redirect to a handful of targets so that mispredictions
// arrive back to back.
func drawStream(d *draws, n int) []isa.Inst {
	reg := func() uint8 {
		if d.chance(25) {
			return isa.RegNone
		}
		return uint8(8 + d.n(6))
	}
	addr := func() uint64 {
		if d.chance(12) {
			return 0x1000_0000 + uint64(d.n(64))<<13 + uint64(d.n(8))*8
		}
		return 0x2000_0000 + uint64(d.n(24))<<6 + uint64(d.n(8))*8
	}
	out := make([]isa.Inst, 0, n)
	pc := uint64(0x40_0000)
	var lastStore uint64
	for len(out) < n {
		in := isa.Inst{
			Seq: uint64(len(out)), PC: pc,
			Src1: reg(), Src2: reg(), Dst: reg(),
		}
		if d.chance(15) && in.Src1 != isa.RegNone {
			in.Dst = in.Src1
		}
		pc += 4
		switch k := d.n(100); {
		case k < 28:
			in.Class = isa.IntALU
		case k < 32:
			in.Class = isa.IntMul
		case k < 34:
			in.Class = isa.IntDiv
		case k < 44:
			in.Class = isa.FPOp
		case k < 62:
			in.Class = isa.Load
			in.Addr = addr()
			if lastStore != 0 && d.chance(40) {
				in.Addr = lastStore&^63 + uint64(d.n(8))*8 // same-line store→load
			}
		case k < 76:
			in.Class = isa.Store
			in.Addr = addr()
			in.Dst = isa.RegNone
			lastStore = in.Addr
		case k < 92:
			in.Class = []isa.Class{isa.Branch, isa.Branch, isa.Call, isa.Return}[d.n(4)]
			in.Dst = isa.RegNone
			in.Taken = in.Class != isa.Branch || d.chance(50)
			if in.Taken {
				in.Target = 0x40_0000 + uint64(d.n(6))<<9 + uint64(d.n(16))*4
				if d.chance(5) {
					in.Target += uint64(d.n(200)) << 14 // a cold I-side page
				}
				pc = in.Target
			}
		case k < 95:
			in.Class = isa.Serializing
		default:
			in.Class = []isa.Class{isa.BarrierArrive, isa.LockAcquire, isa.LockRelease}[d.n(3)]
			in.SyncID = uint16(d.n(4))
		}
		out = append(out, in)
	}
	return out
}

// scriptSyncer refuses each synchronization instruction for a number of
// cycles fixed by its core and sequence number, counted from the first
// request, then lets it through at a latency fixed the same way. It logs
// every request, so that the two sides can be held to the same polling.
type scriptSyncer struct {
	first map[[2]uint64]int64
	calls [][3]int64 // core, sequence number, cycle
}

func (s *scriptSyncer) Sync(core int, in *isa.Inst, now int64) sim.SyncDecision {
	s.calls = append(s.calls, [3]int64{int64(core), int64(in.Seq), now})
	key := [2]uint64{uint64(core), in.Seq}
	t0, ok := s.first[key]
	if !ok {
		t0 = now
		s.first[key] = now
	}
	h := (in.Seq*2654435761 + uint64(core)*40503 + uint64(in.SyncID)) >> 3
	if now < t0+int64(h%40) {
		return sim.SyncDecision{}
	}
	return sim.SyncDecision{Proceed: true, Latency: int64(h % 4)}
}

// diffSide is one of the two machines of a differential run.
type diffSide struct {
	mem    *memhier.Hierarchy
	bps    []*branch.Unit
	syncer *scriptSyncer
	cores  []sim.Core
}

func newSide(dc diffCase, mk func(id int, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, sy sim.Syncer) sim.Core) diffSide {
	s := diffSide{
		mem:    memhier.New(dc.machine.Cores, dc.machine.Mem, dc.perfect),
		syncer: &scriptSyncer{first: map[[2]uint64]int64{}},
	}
	for i, insts := range dc.streams {
		bp := branch.NewUnit(dc.machine.Branch)
		s.bps = append(s.bps, bp)
		s.cores = append(s.cores, mk(i, bp, s.mem, trace.NewSliceStream(insts), s.syncer))
	}
	return s
}

// machineState renders every end-of-run counter the two sides must agree
// on outside the cores themselves.
func (s diffSide) machineState() string {
	out := fmt.Sprintf("memhier %+v dram %+v fabric tx %d stall %d",
		s.mem.Stats(), s.mem.DRAM().Stats(), s.mem.Fabric().TxCount(), s.mem.Fabric().StallCycles())
	if l2 := s.mem.L2(); l2 != nil {
		out += fmt.Sprintf(" l2 %d/%d", l2.Hits, l2.Misses)
	}
	for i, bp := range s.bps {
		l1i, l1d := s.mem.L1I(i), s.mem.L1D(i)
		out += fmt.Sprintf("\ncore %d: %+v l1i %d/%d l1d %d/%d wb %d branch %d/%d", i, s.mem.CoreStats(i),
			l1i.Hits, l1i.Misses, l1d.Hits, l1d.Misses, l1d.WriteBack, bp.Lookups, bp.Mispredictions)
	}
	return out
}

// checkMatchesReference steps the event-driven core and the polling
// reference side by side, each on its own hierarchy, predictors and syncer,
// and requires them to be indistinguishable from outside: the same
// Retired/Done after every cycle, and at the end the same finish time,
// cycle and stall counts and the same state of everything they touched
// (which they can only reach by making the same calls in the same order).
func checkMatchesReference(t *testing.T, dc diffCase) {
	t.Helper()
	cfg := dc.machine.Core
	ref := newSide(dc, func(id int, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, sy sim.Syncer) sim.Core {
		return newRefCore(id, cfg, bp, mem, src, sy)
	})
	got := newSide(dc, func(id int, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, sy sim.Syncer) sim.Core {
		return New(id, cfg, bp, mem, src, sy)
	})
	jump := rand.New(rand.NewSource(int64(len(dc.streams[0]))))
	var now int64
	for live := true; live; {
		live = false
		for i := range ref.cores {
			r, g := ref.cores[i], got.cores[i]
			r.Step(now)
			g.Step(now)
			if r.Retired() != g.Retired() || r.Done() != g.Done() {
				t.Fatalf("cycle %d core %d: reference retired %d done %t, core retired %d done %t\nmachine %+v",
					now, i, r.Retired(), r.Done(), g.Retired(), g.Done(), dc.machine.Core)
			}
			live = live || !r.Done()
		}
		now++
		if dc.gaps && jump.Intn(50) == 0 {
			now += int64(jump.Intn(3 * wheelSize))
		}
		if now > 5_000_000 {
			t.Fatalf("reference did not finish\nmachine %+v", dc.machine.Core)
		}
	}
	for i := range ref.cores {
		r, g := ref.cores[i].(*refCore), got.cores[i].(*Core)
		if r.finishTime != g.finishTime || r.Cycles != g.Cycles || r.DispatchStall != g.DispatchStall {
			t.Errorf("core %d: reference finish %d cycles %d stalls %d, core finish %d cycles %d stalls %d",
				i, r.finishTime, r.Cycles, r.DispatchStall, g.finishTime, g.Cycles, g.DispatchStall)
		}
		if g.iqCount != 0 || g.lsqCount != 0 || g.nReady != 0 || g.nTimed != 0 || g.stores.live != 0 || g.redirects != 0 {
			t.Errorf("core %d finished with iq %d lsq %d ready %d timed %d store lines %d redirects %d",
				i, g.iqCount, g.lsqCount, g.nReady, g.nTimed, g.stores.live, g.redirects)
		}
	}
	if !slices.Equal(ref.syncer.calls, got.syncer.calls) {
		t.Errorf("syncer polled differently: reference %d requests, core %d", len(ref.syncer.calls), len(got.syncer.calls))
	}
	if r, g := ref.machineState(), got.machineState(); r != g {
		t.Errorf("machine state differs\nreference: %s\ncore:      %s", r, g)
	}
	if t.Failed() {
		t.Logf("machine %+v", dc.machine.Core)
	}
}

func TestCoreMatchesReference(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	for seed := 0; seed < cases; seed++ {
		d := &draws{rng: rand.New(rand.NewSource(int64(seed)))}
		checkMatchesReference(t, drawCase(d))
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestCoreMatchesReferenceDefaultMachine runs the comparison at the Table 1
// sizes, where the ROB spans several bitmap words and the ring wraps.
func TestCoreMatchesReferenceDefaultMachine(t *testing.T) {
	for seed := 0; seed < 4; seed++ {
		d := &draws{rng: rand.New(rand.NewSource(int64(1000 + seed)))}
		dc := drawCase(d)
		dc.machine.Core = config.Default(1).Core
		dc.streams = dc.streams[:0]
		for i := 0; i < dc.machine.Cores; i++ {
			dc.streams = append(dc.streams, drawStream(d, 6000))
		}
		checkMatchesReference(t, dc)
	}
}

// FuzzCoreMatchesReference explores machine shapes and stream heads from the
// fuzzer's bytes (see draws). Runs under -race in CI.
func FuzzCoreMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{}) // the named shapes are in testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) > 4096 {
			shape = shape[:4096]
		}
		d := &draws{data: shape, rng: rand.New(rand.NewSource(seed))}
		checkMatchesReference(t, drawCase(d))
	})
}

// TestLineCountsMatchesMap drives the store-line table against a map through
// fills to its bound, collisions and deletions in every order.
func TestLineCountsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		bound := 1 + rng.Intn(12)
		tab := newLineCounts(bound)
		ref := map[uint64]int{}
		var held []uint64 // one element per in-flight store
		lines := 1 + rng.Intn(3*bound)
		for op := 0; op < 2000; op++ {
			switch {
			case len(held) < bound && rng.Intn(2) == 0:
				// Multiples of a large power of two collide after the
				// multiplicative hash as sequential lines do not.
				l := uint64(rng.Intn(lines)) << uint(rng.Intn(2)*40)
				tab.inc(l)
				ref[l]++
				held = append(held, l)
			case len(held) > 0:
				i := rng.Intn(len(held))
				l := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				tab.dec(l)
				if ref[l]--; ref[l] == 0 {
					delete(ref, l)
				}
			}
			if tab.live != len(ref) {
				t.Fatalf("trial %d op %d: %d lines live, want %d", trial, op, tab.live, len(ref))
			}
			for l := 0; l < lines; l++ {
				for _, k := range []uint64{uint64(l), uint64(l) << 40} {
					if tab.has(k) != (ref[k] > 0) {
						t.Fatalf("trial %d op %d: has(%#x) = %t, map holds %d", trial, op, k, tab.has(k), ref[k])
					}
				}
			}
		}
	}
}
