package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDiagnoseRate inspects the old-window rate estimate in the dside-only
// configuration where the interval model currently undershoots.
func TestDiagnoseRate(t *testing.T) {
	p := workload.SPECByName("mesa")
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true})
	bp := branch.NewUnit(m.Branch)
	warm := trace.NewBuffered(workload.New(p, 0, 1, 777), 4096)
	for k := 0; k < 1_000_000; k++ {
		in, ok := warm.Next()
		if !ok {
			break
		}
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
	}
	mem.ResetStats()
	gen := workload.New(p, 0, 1, 42)
	c := New(0, m.Core, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{})
	var now int64
	var rateSum float64
	var samples int64
	var cpSum, nSum int64
	for !c.Done() {
		c.Step(now)
		now++
		if now%64 == 0 {
			rateSum += c.old.DispatchRate()
			cpSum += c.old.CriticalPath()
			nSum += int64(c.old.Len())
			samples++
		}
	}
	t.Logf("IPC=%.3f avgRate=%.2f avgCP=%d avgN=%d events: LL=%d I=%d br=%d",
		c.IPC(), rateSum/float64(samples), cpSum/samples, nSum/samples,
		c.LongLoadEvents, c.ICacheEvents, c.BranchEvents)
}
