// Package report renders a post-run summary of a simulation: per-core
// results, memory-hierarchy statistics (miss rates, bus and DRAM
// utilization, coherence traffic) and — for interval-model runs — the CPI
// stacks. It is what a user reads after a design-space run to understand
// *why* a configuration performed the way it did.
package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/multicore"
)

// Format renders the report. The run must have been made with
// RunConfig.KeepCores so the hierarchy and core models are available;
// without them only the per-core table is printed.
func Format(res multicore.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s cycles=%d instructions=%d wall=%v (%.2f MIPS)\n",
		res.Model, res.Cycles, res.TotalRetired, res.Wall, res.MIPS())
	if res.TimedOut {
		b.WriteString("WARNING: run hit the cycle limit\n")
	}
	if res.Interrupted {
		b.WriteString("WARNING: run was interrupted before completing\n")
	}

	b.WriteString("cores:\n")
	for i, c := range res.Cores {
		fmt.Fprintf(&b, "  core %-2d retired=%-10d finish=%-10d IPC=%.3f\n",
			i, c.Retired, c.Finish, c.IPC)
	}

	if res.Mem != nil {
		h := res.Mem
		b.WriteString("memory hierarchy:\n")
		for i := 0; i < len(res.Cores); i++ {
			fmt.Fprintf(&b, "  core %-2d L1I miss=%.4f  L1D miss=%.4f\n",
				i, h.L1I(i).MissRate(), h.L1D(i).MissRate())
		}
		if l2 := h.L2(); l2 != nil {
			fmt.Fprintf(&b, "  L2 miss=%.4f (hits=%d misses=%d)\n",
				l2.MissRate(), l2.Hits, l2.Misses)
		} else {
			b.WriteString("  L2: none (3D-stacked configuration)\n")
		}
		fab := h.Fabric()
		fmt.Fprintf(&b, "  fabric: transactions=%d queue-stall=%d (%.1f%% busy)\n",
			fab.Transactions, fab.StallTotal, 100*fab.Utilization(res.Cycles))
		d := h.DRAM().Stats()
		fmt.Fprintf(&b, "  DRAM: requests=%d queue-stall=%d (%.1f%% bus busy)\n",
			d.Requests, d.StallTotal, 100*h.DRAM().Utilization(res.Cycles))
		coh := h.Coherence().Stats()
		fmt.Fprintf(&b, "  coherence: interventions=%d upgrades=%d invalidations=%d\n",
			coh.Interventions, coh.Upgrades, coh.Invalidations)
		if st := h.Stats(); st.Prefetches > 0 {
			fmt.Fprintf(&b, "  prefetch: issued=%d fills-from-DRAM=%d\n",
				st.Prefetches, st.PrefetchFills)
		}
	}

	for i, sc := range res.Sim {
		if ic, ok := sc.(*core.Core); ok {
			fmt.Fprintf(&b, "core %d %s", i, ic.Stack())
			if iv := ic.Intervals(); iv.Events > 0 {
				fmt.Fprintf(&b, "core %d %s", i, iv)
			}
		}
	}
	return b.String()
}
