package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memhier"
)

func TestIntervalHistogramCountsEvents(t *testing.T) {
	// Isolated long-latency loads every 100 instructions: each charged
	// event ends one interval of ~100 instructions.
	insts := seqALU(1000)
	for i := 100; i < 1000; i += 100 {
		insts[i] = isa.Inst{PC: 0x400400, Class: isa.Load,
			Addr: 0x10000000000 + uint64(i)*0x100000000,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: 9}
	}
	c, _ := build(insts, memhier.Perfect{ISide: true}, "perfect")
	runCore(c)
	st := c.Intervals()
	if st.Events == 0 {
		t.Fatal("no intervals recorded")
	}
	if st.Events != c.ICacheEvents+c.BranchEvents+c.LongLoadEvents+c.SerializeEvents {
		t.Fatalf("intervals %d != charged events %d",
			st.Events, c.ICacheEvents+c.BranchEvents+c.LongLoadEvents+c.SerializeEvents)
	}
	// ~100-instruction intervals land in the [64,127] bucket.
	if st.Mean() < 50 || st.Mean() > 300 {
		t.Fatalf("mean interval length %.1f, want ~100", st.Mean())
	}
	if st.Hist[7] == 0 {
		t.Fatalf("no intervals in the 64-127 bucket: %v", st.Hist)
	}
}

func TestIntervalStatsString(t *testing.T) {
	var st IntervalStats
	st.Hist[0] = 1
	st.Hist[7] = 5
	st.Hist[intervalBuckets-1] = 2
	st.Events = 8
	st.Insts = 800
	out := st.String()
	for _, want := range []string{"8 intervals", "mean 100.0", "64-127", "65536+"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram rendering missing %q:\n%s", want, out)
		}
	}
}

func TestIntervalStatsEmptyMean(t *testing.T) {
	var st IntervalStats
	if st.Mean() != 0 {
		t.Fatal("empty stats mean not zero")
	}
}

func TestNoEventsNoIntervals(t *testing.T) {
	c, _ := build(seqALU(1000), memhier.Perfect{ISide: true, DSide: true}, "perfect")
	runCore(c)
	if got := c.Intervals().Events; got != 0 {
		t.Fatalf("perfect run recorded %d intervals", got)
	}
}
