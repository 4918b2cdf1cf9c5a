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

// Format renders the report: the run's Summarize, plus what the summary
// leaves out — the host's wall time and speed, and the interval cores' CPI
// stacks. The run must have been made with RunConfig.KeepCores so the
// hierarchy and core models are available; without them only the
// per-core table is printed.
func Format(res multicore.Result) string {
	s := Summarize(res)
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s cycles=%d instructions=%d wall=%v (%.2f MIPS)\n",
		s.Model, s.Cycles, s.Instructions, res.Wall, res.MIPS())
	if s.TimedOut {
		b.WriteString("WARNING: run hit the cycle limit\n")
	}
	if s.Interrupted {
		b.WriteString("WARNING: run was interrupted before completing\n")
	}

	b.WriteString("cores:\n")
	for _, c := range s.Cores {
		fmt.Fprintf(&b, "  core %-2d retired=%-10d finish=%-10d IPC=%.3f\n",
			c.Core, c.Retired, c.Finish, c.IPC)
	}

	if m := s.Mem; m != nil {
		b.WriteString("memory hierarchy:\n")
		for _, c := range m.Cores {
			fmt.Fprintf(&b, "  core %-2d L1I miss=%.4f  L1D miss=%.4f\n",
				c.Core, c.L1IMissRate, c.L1DMissRate)
		}
		if l2 := m.L2; l2 != nil {
			fmt.Fprintf(&b, "  L2 miss=%.4f (hits=%d misses=%d)\n", l2.MissRate, l2.Hits, l2.Misses)
		} else {
			b.WriteString("  L2: none (3D-stacked configuration)\n")
		}
		fmt.Fprintf(&b, "  fabric: transactions=%d queue-stall=%d (%.1f%% busy)\n",
			m.Fabric.Transactions, m.Fabric.StallCycles, 100*m.Fabric.Utilization)
		fmt.Fprintf(&b, "  DRAM: requests=%d queue-stall=%d (%.1f%% bus busy)\n",
			m.DRAM.Requests, m.DRAM.StallCycles, 100*m.DRAM.Utilization)
		fmt.Fprintf(&b, "  coherence: interventions=%d upgrades=%d invalidations=%d\n",
			m.Coherence.Interventions, m.Coherence.Upgrades, m.Coherence.Invalidations)
		if m.Prefetches > 0 {
			fmt.Fprintf(&b, "  prefetch: issued=%d fills-from-DRAM=%d\n", m.Prefetches, m.PrefetchFills)
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
