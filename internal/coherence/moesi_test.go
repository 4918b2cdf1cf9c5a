package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const line = uint64(0x1000)

func TestColdReadIsExclusive(t *testing.T) {
	p := New(4, 64)
	res := p.Read(0, line)
	if res.Source != SrcBelow || res.NewState != Exclusive {
		t.Fatalf("cold read = %+v, want below/Exclusive", res)
	}
	if p.State(0, line) != Exclusive {
		t.Fatalf("state = %v, want E", p.State(0, line))
	}
}

func TestSecondReaderGetsSharedFromExclusive(t *testing.T) {
	p := New(4, 64)
	p.Read(0, line)
	res := p.Read(1, line)
	if res.Source != SrcRemote {
		t.Fatalf("source = %v, want remote (E supplies)", res.Source)
	}
	if p.State(0, line) != Shared || p.State(1, line) != Shared {
		t.Fatalf("states = %v/%v, want S/S", p.State(0, line), p.State(1, line))
	}
}

func TestReadFromModifiedDowngradesToOwned(t *testing.T) {
	p := New(4, 64)
	p.Write(0, line)
	res := p.Read(1, line)
	if res.Source != SrcRemote {
		t.Fatalf("source = %v, want remote", res.Source)
	}
	if p.State(0, line) != Owned || p.State(1, line) != Shared {
		t.Fatalf("states = %v/%v, want O/S", p.State(0, line), p.State(1, line))
	}
	// A third reader is supplied by the Owned copy.
	res = p.Read(2, line)
	if res.Source != SrcRemote {
		t.Fatalf("third reader source = %v, want remote (O supplies)", res.Source)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	p := New(4, 64)
	p.Read(0, line)
	p.Read(1, line)
	p.Read(2, line)
	res := p.Write(1, line)
	if res.NewState != Modified {
		t.Fatalf("state after write = %v, want M", res.NewState)
	}
	if res.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", res.Invalidations)
	}
	if p.State(0, line) != Invalid || p.State(2, line) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	if p.Upgrades != 1 {
		t.Fatalf("Upgrades = %d, want 1", p.Upgrades)
	}
}

func TestWriteHitExclusiveSilentUpgrade(t *testing.T) {
	p := New(2, 64)
	p.Read(0, line)
	res := p.Write(0, line)
	if res.Source != SrcOwn || res.Invalidations != 0 {
		t.Fatalf("E->M upgrade = %+v, want silent", res)
	}
	if p.State(0, line) != Modified {
		t.Fatalf("state = %v, want M", p.State(0, line))
	}
}

func TestWriteMissFromRemoteModified(t *testing.T) {
	p := New(2, 64)
	p.Write(0, line)
	res := p.Write(1, line)
	if res.Source != SrcRemote {
		t.Fatalf("source = %v, want remote (dirty transfer)", res.Source)
	}
	if res.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", res.Invalidations)
	}
	if p.State(0, line) != Invalid || p.State(1, line) != Modified {
		t.Fatalf("states = %v/%v, want I/M", p.State(0, line), p.State(1, line))
	}
}

func TestEvictReportsWriteback(t *testing.T) {
	p := New(2, 64)
	p.Write(0, line)
	if !p.Evict(0, line) {
		t.Fatal("evicting M did not request writeback")
	}
	p.Read(0, line)
	if p.Evict(0, line) {
		t.Fatal("evicting E requested writeback")
	}
	if p.Evict(0, line) {
		t.Fatal("evicting absent line requested writeback")
	}
}

func TestEvictGarbageCollects(t *testing.T) {
	p := New(2, 64)
	p.Read(0, line)
	p.Evict(0, line)
	if p.Holders(line) != 0 {
		t.Fatalf("holders = %d after last evict, want 0", p.Holders(line))
	}
	if p.lines.Len() != 0 {
		t.Fatal("line state not garbage collected")
	}
}

func TestCoherenceMissClassification(t *testing.T) {
	// The paper treats data supplied by a remote cache as a coherence
	// miss (long-latency); data from below is an ordinary miss.
	p := New(2, 64)
	p.Write(0, line)
	if res := p.Read(1, line); res.Source != SrcRemote {
		t.Fatal("dirty remote supply not classified as remote")
	}
	p2 := New(2, 64)
	p2.Read(0, line)
	p2.Read(1, line)
	p2.Evict(0, line)
	p2.Evict(1, line)
	if res := p2.Read(0, line); res.Source != SrcBelow {
		t.Fatal("fresh read after evictions not from below")
	}
}

func TestInvariantsDetectViolations(t *testing.T) {
	p := New(2, 64)
	p.Write(0, line)
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatalf("valid state flagged: %s", msg)
	}
	// Corrupt the state deliberately.
	setState(p.lines.Find(line), 1, Modified)
	if msg := p.CheckInvariants(); msg == "" {
		t.Fatal("two Modified copies not detected")
	}
}

// Property: the MOESI single-writer/multi-reader invariants hold under any
// random access/evict sequence.
func TestQuickInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		p := New(4, 64)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			core := int(op & 3)
			addr := uint64(op&0x1C) << 4
			switch {
			case op < 120:
				p.Read(core, addr)
			case op < 230:
				p.Write(core, addr)
			default:
				p.Evict(core, addr)
			}
			_ = rng
			if p.CheckInvariants() != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any write, the writer is the only valid holder.
func TestQuickWriteExclusivity(t *testing.T) {
	f := func(ops []uint16) bool {
		p := New(4, 64)
		for _, op := range ops {
			core := int(op & 3)
			addr := uint64(op>>2) << 6
			if op&0x8000 != 0 {
				p.Write(core, addr)
				if p.Holders(addr) != 1 || p.State(core, addr) != Modified {
					return false
				}
			} else {
				p.Read(core, addr)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMESIHasNoOwnedState(t *testing.T) {
	p := NewMESI(2, 64)
	p.Write(0, line)
	res := p.Read(1, line)
	if res.Source != SrcRemote || !res.WritebackBelow {
		t.Fatalf("MESI dirty read = %+v, want remote supply with writeback", res)
	}
	if p.State(0, line) != Shared || p.State(1, line) != Shared {
		t.Fatalf("MESI states = %v/%v, want S/S", p.State(0, line), p.State(1, line))
	}
	// No copy is dirty anymore: evicting either requires no writeback.
	if p.Evict(0, line) {
		t.Fatal("MESI Shared eviction requested writeback")
	}
}

func TestMOESIKeepsDirtySharing(t *testing.T) {
	p := New(2, 64)
	p.Write(0, line)
	res := p.Read(1, line)
	if res.WritebackBelow {
		t.Fatal("MOESI wrote back on dirty sharing (O state exists)")
	}
	if p.State(0, line) != Owned {
		t.Fatalf("supplier state = %v, want O", p.State(0, line))
	}
	// The Owned copy still owes a writeback at eviction.
	if !p.Evict(0, line) {
		t.Fatal("evicting O did not request writeback")
	}
}

func TestMESIInvariantsUnderTraffic(t *testing.T) {
	p := NewMESI(4, 64)
	for i := 0; i < 3000; i++ {
		core := i % 4
		addr := uint64(i%16) << 6
		if i%3 == 0 {
			p.Write(core, addr)
		} else {
			p.Read(core, addr)
		}
		if msg := p.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		for c := 0; c < 4; c++ {
			if p.State(c, addr) == Owned {
				t.Fatal("Owned state appeared in MESI")
			}
		}
	}
}
