package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirectoryColdReadIsExclusive(t *testing.T) {
	d := NewDirectory(4, 64)
	res := d.Read(0, 0x1000)
	if res.Source != SrcBelow || res.NewState != Exclusive {
		t.Fatalf("cold read: %+v", res)
	}
	if d.State(0, 0x1000) != Exclusive {
		t.Fatalf("state = %v", d.State(0, 0x1000))
	}
	if d.ReadMisses != 1 {
		t.Fatalf("ReadMisses = %d", d.ReadMisses)
	}
}

func TestDirectorySecondReaderShares(t *testing.T) {
	d := NewDirectory(4, 64)
	d.Read(0, 0x1000)
	res := d.Read(1, 0x1000)
	// Owner was Exclusive (clean): forwarded, both Shared, no writeback.
	if res.Source != SrcRemote || res.NewState != Shared || res.WritebackBelow {
		t.Fatalf("second read: %+v", res)
	}
	if d.State(0, 0x1000) != Shared || d.State(1, 0x1000) != Shared {
		t.Fatalf("states: %v %v", d.State(0, 0x1000), d.State(1, 0x1000))
	}
	if d.Holders(0x1000) != 2 {
		t.Fatalf("holders = %d", d.Holders(0x1000))
	}
}

func TestDirectoryReadOfModifiedWritesBack(t *testing.T) {
	d := NewDirectory(4, 64)
	d.Write(0, 0x40)
	res := d.Read(1, 0x40)
	if res.Source != SrcRemote || !res.WritebackBelow || res.NewState != Shared {
		t.Fatalf("read of M copy: %+v", res)
	}
	if d.State(0, 0x40) != Shared {
		t.Fatalf("old owner state = %v", d.State(0, 0x40))
	}
}

func TestDirectoryUpgradeInvalidatesSharers(t *testing.T) {
	d := NewDirectory(8, 64)
	for c := 0; c < 4; c++ {
		d.Read(c, 0x80)
	}
	res := d.Write(2, 0x80)
	if res.Source != SrcOwn || res.Invalidations != 3 {
		t.Fatalf("upgrade: %+v", res)
	}
	if d.Upgrades != 1 {
		t.Fatalf("Upgrades = %d", d.Upgrades)
	}
	for c := 0; c < 4; c++ {
		want := Invalid
		if c == 2 {
			want = Modified
		}
		if got := d.State(c, 0x80); got != want {
			t.Errorf("core %d state = %v, want %v", c, got, want)
		}
	}
}

func TestDirectoryWriteMissInvalidatesOwner(t *testing.T) {
	d := NewDirectory(4, 64)
	d.Write(0, 0xc0)
	res := d.Write(1, 0xc0)
	if res.Source != SrcRemote || res.Invalidations != 1 {
		t.Fatalf("write miss over M owner: %+v", res)
	}
	if d.State(0, 0xc0) != Invalid || d.State(1, 0xc0) != Modified {
		t.Fatalf("states: %v %v", d.State(0, 0xc0), d.State(1, 0xc0))
	}
}

func TestDirectoryEvict(t *testing.T) {
	d := NewDirectory(4, 64)
	d.Write(0, 0x100)
	if wb := d.Evict(0, 0x100); !wb {
		t.Fatal("evicting Modified must write back")
	}
	if d.State(0, 0x100) != Invalid {
		t.Fatalf("state after evict = %v", d.State(0, 0x100))
	}
	d.Read(1, 0x100)
	if wb := d.Evict(1, 0x100); wb {
		t.Fatal("evicting Exclusive (clean) must not write back")
	}
	// Entry must be garbage collected once empty.
	if d.lines.Len() != 0 {
		t.Fatalf("lines not collected: %d entries", d.lines.Len())
	}
}

func TestDirectoryInvariantsUnderRandomTraffic(t *testing.T) {
	d := NewDirectory(8, 64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		core := rng.Intn(8)
		line := uint64(rng.Intn(64)) * 64
		switch rng.Intn(3) {
		case 0:
			d.Read(core, line)
		case 1:
			d.Write(core, line)
		default:
			d.Evict(core, line)
		}
		if msg := d.CheckInvariants(); msg != "" {
			t.Fatalf("step %d: %s", i, msg)
		}
	}
}

// TestDirectoryMatchesSnoopingMESI drives the directory and the snooping
// MESI protocol with the same random transaction stream and requires
// identical observable behaviour (source, invalidation count, new state,
// writeback) and identical per-core line states throughout. The directory
// is bookkeeping for the same MESI state machine, so any divergence is a
// bug in one of them.
func TestDirectoryMatchesSnoopingMESI(t *testing.T) {
	f := func(seed int64, coresRaw uint8) bool {
		cores := int(coresRaw%8) + 1
		dir := NewDirectory(cores, 64)
		snoop := NewMESI(cores, 64)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			core := rng.Intn(cores)
			line := uint64(rng.Intn(16)) * 64
			var rd, rs Result
			op := rng.Intn(3)
			switch op {
			case 0:
				rd, rs = dir.Read(core, line), snoop.Read(core, line)
			case 1:
				rd, rs = dir.Write(core, line), snoop.Write(core, line)
			default:
				wd, ws := dir.Evict(core, line), snoop.Evict(core, line)
				if wd != ws {
					t.Logf("seed %d step %d: evict writeback %v vs %v", seed, i, wd, ws)
					return false
				}
				continue
			}
			if rd.Source != rs.Source || rd.Invalidations != rs.Invalidations ||
				rd.NewState != rs.NewState || rd.WritebackBelow != rs.WritebackBelow {
				t.Logf("seed %d step %d op %d: directory %+v vs snooping %+v",
					seed, i, op, rd, rs)
				return false
			}
			for c := 0; c < cores; c++ {
				if dir.State(c, line) != snoop.State(c, line) {
					t.Logf("seed %d step %d: core %d state %v vs %v",
						seed, i, c, dir.State(c, line), snoop.State(c, line))
					return false
				}
			}
		}
		return dir.CheckInvariants() == "" && snoop.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryStatsMatchSnoopingMESI(t *testing.T) {
	cores := 4
	dir := NewDirectory(cores, 64)
	snoop := NewMESI(cores, 64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		core := rng.Intn(cores)
		line := uint64(rng.Intn(32)) * 64
		if rng.Intn(2) == 0 {
			dir.Read(core, line)
			snoop.Read(core, line)
		} else {
			dir.Write(core, line)
			snoop.Write(core, line)
		}
	}
	ds, ss := dir.Stats(), snoop.Stats()
	if ds != ss {
		t.Fatalf("traffic diverged:\ndirectory %+v\nsnooping  %+v", ds, ss)
	}
}

func TestDirectoryReset(t *testing.T) {
	d := NewDirectory(2, 64)
	d.Write(0, 0x40)
	d.Read(1, 0x40)
	d.Reset()
	if d.lines.Len() != 0 || d.ReadMisses != 0 || d.Interventions != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestDirectoryPanicsOnBadCoreCount(t *testing.T) {
	for _, n := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDirectory(%d) did not panic", n)
				}
			}()
			NewDirectory(n, 64)
		}()
	}
}
