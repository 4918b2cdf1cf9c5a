// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the step-by-step single-threaded accuracy
// experiments (Figure 4), full single-threaded accuracy (Figure 5),
// multi-program STP/ANTT (Figure 6), multi-threaded PARSEC scaling
// (Figure 7), the 3D-stacking design-trade-off case study (Figure 8), and
// the simulation-speed comparisons (Figures 9 and 10), plus a one-IPC
// ablation. Each experiment returns a Table whose rows mirror the series
// the paper plots; cmd/experiments prints them and bench_test.go wraps them
// as benchmarks.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// Opts sizes the experiments. The paper simulates 100M-instruction
// SimPoints; the synthetic substrate reaches steady state much sooner, so
// the defaults are far smaller while preserving every qualitative result.
type Opts struct {
	// Ctx, when non-nil, cancels runs in flight (Ctrl-C handling in
	// cmd/experiments): cancellation panics with ErrInterrupted, which
	// front ends recover into a clean exit.
	Ctx context.Context
	// Insts is the per-thread instruction budget for SPEC-style runs.
	Insts int
	// Warmup is the functional warmup length per core.
	Warmup int
	// WorkScale scales PARSEC profiles' TotalWork (1.0 = profile value).
	WorkScale float64
	// Seed selects the deterministic workload instance.
	Seed int64
	// Jobs is the host worker-pool size for figures whose runs are
	// independent (0 or 1 = sequential). Simulated results are identical
	// at any setting; the wall-clock-speedup figures (9 and 10) always
	// run sequentially so their host-time measurements stay honest.
	Jobs int
}

// Defaults returns the standard experiment sizing.
func Defaults() Opts {
	return Opts{Insts: 50_000, Warmup: 600_000, WorkScale: 1, Seed: 42}
}

// Quick returns a reduced sizing for smoke runs.
func Quick() Opts {
	return Opts{Insts: 15_000, Warmup: 150_000, WorkScale: 0.25, Seed: 42}
}

// Table is one regenerated figure or table.
type Table struct {
	ID      string   // e.g. "fig5"
	Title   string   // the paper artifact it reproduces
	Columns []string // column headers
	Rows    [][]string
	// Notes summarizes the expected shape and the measured aggregate
	// (average/max error, speedup range) under the table.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = pad(c, widths[i])
	}
	b.WriteString(strings.Join(header, "  "))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			cells[i] = pad(c, w)
		}
		b.WriteString(strings.Join(cells, "  "))
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "-- %s\n", n)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// expMaxCycles aborts runaway experiment runs.
const expMaxCycles = 500_000_000

// scenario builds an experiment's scenario. The specs come from static
// tables, so one that does not build is a bug.
func scenario(sp simrun.Spec) *simrun.Scenario {
	s, err := sp.Scenario()
	if err != nil {
		panic(err)
	}
	return s
}

// specSpec describes one SPEC profile run with the given perfect switches
// and predictor kind.
func (o Opts) specSpec(p *workload.Profile, model string, cores int, perfect memhier.Perfect, predictor string) simrun.Spec {
	return simrun.Spec{Bench: p.Name, Model: model, Cores: cores, Insts: o.Insts, Warmup: o.Warmup, Seed: &o.Seed,
		Perfect: &perfect, MaxCycles: expMaxCycles, Predictor: predictor}
}

// specScenario is the scenario specSpec describes.
func (o Opts) specScenario(p *workload.Profile, model string, cores int, perfect memhier.Perfect, predictor string) *simrun.Scenario {
	return scenario(o.specSpec(p, model, cores, perfect, predictor))
}

// parsecScenario describes one PARSEC profile run with one thread per core
// on machine m. A zero WorkScale (an Opts built by hand) means "no
// scaling", which is what a Spec's zero WorkScale means.
func (o Opts) parsecScenario(p *workload.Profile, model string, m config.Machine) *simrun.Scenario {
	return scenario(simrun.Spec{Bench: p.Name, Model: model, Machine: &m, WorkScale: max(o.WorkScale, 0),
		Warmup: o.Warmup, Seed: &o.Seed, MaxCycles: expMaxCycles})
}

// runSpec runs one SPEC profile alone, synchronously.
func (o Opts) runSpec(p *workload.Profile, model string, cores int,
	perfect memhier.Perfect, predictor string) multicore.Result {
	return o.one(o.specScenario(p, model, cores, perfect, predictor))
}

// runParsec runs one PARSEC profile, synchronously.
func (o Opts) runParsec(p *workload.Profile, model string, m config.Machine) multicore.Result {
	return o.one(o.parsecScenario(p, model, m))
}

// ErrInterrupted is the panic value raised when Opts.Ctx is cancelled
// mid-experiment. Experiments are static tables driven through deep call
// chains, so cancellation unwinds as a panic; cmd front ends recover it
// and exit cleanly instead of printing a half-finished figure.
var ErrInterrupted = errors.New("experiments: interrupted")

// ctx returns the run context.
func (o Opts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// checkRunErr separates cancellation (unwound as ErrInterrupted) from
// real failures (bugs: the scenarios are static tables).
func checkRunErr(name string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		panic(ErrInterrupted)
	}
	panic(fmt.Sprintf("experiments: %s: %v", name, err))
}

// one executes a single scenario; experiment scenarios are built from
// static tables, so a failure is a bug, not an input error.
func (o Opts) one(s *simrun.Scenario) multicore.Result {
	res, err := s.Run(o.ctx())
	checkRunErr(s.Name(), err)
	return res.Result
}

// runAll executes independent scenarios across Opts.Jobs host workers and
// returns their results in input order.
func (o Opts) runAll(scs []*simrun.Scenario) []multicore.Result {
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	batch := simrun.Batch(o.ctx(), scs, simrun.BatchOpts{Workers: jobs})
	out := make([]multicore.Result, len(batch))
	for i, r := range batch {
		checkRunErr(r.Scenario.Name(), r.Err)
		out[i] = r.Result.Result
	}
	return out
}

// f3 formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f2 formats a float at 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
