package multicore

import "repro/internal/sim"

// everyCycle hides when a core sleeps: its NextActive answers now, so the
// driver steps it in every cycle until it finishes.
type everyCycle struct{ sim.Core }

func (everyCycle) NextActive(now int64) int64 { return now }

// SteppingEveryCycle returns cfg with every core the run builds wrapped so
// that the driver steps it every cycle: the stepping that skipping idle
// cycles must be indistinguishable from.
func SteppingEveryCycle(cfg RunConfig) RunConfig {
	cfg.newCore = func(_ int, c sim.Core) sim.Core { return everyCycle{c} }
	return cfg
}
