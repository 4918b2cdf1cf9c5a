// Command intervalsim runs one workload on one simulated machine and
// prints per-core results — the quick way to try the simulator.
//
// Usage:
//
//	intervalsim -bench gcc                          # SPEC profile, interval model
//	intervalsim -bench gcc -model detailed          # cycle-level baseline
//	intervalsim -bench blackscholes -cores 4        # PARSEC profile, 4 threads
//	intervalsim -bench mcf -copies 4                # multi-program: 4 copies
//	intervalsim -list                               # available profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// main runs under a context that Ctrl-C / SIGTERM cancels: the run stops at
// the driver's next poll and the partial result is still printed (with its
// interrupted marker), so a long run cut short is not a total loss. run
// returns the status so deferred profile writers execute before the exit.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// writeTrace dumps the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("intervalsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	knobs := simrun.Knobs() // a knob flag defaults to its baseline and lists its names
	knob := func(name, usage string) *string {
		return fl.String(name, knobs[name][0], usage+": "+strings.Join(knobs[name], ", "))
	}
	var (
		bench  = fl.String("bench", "", "benchmark profile name")
		model  = fl.String("model", "interval", "core model: "+strings.Join(multicore.Models(), ", "))
		cores  = fl.Int("cores", 1, "cores (threads for PARSEC profiles)")
		copies = fl.Int("copies", 0, "run N copies of a SPEC profile (multi-program)")
		insts  = fl.Int("insts", 100_000, "per-thread instruction budget for SPEC profiles")
		warmup = fl.Int("warmup", 600_000, "functional warmup instructions per core")
		seed   = fl.Int64("seed", 42, "workload seed")
		list   = fl.Bool("list", false, "list available benchmark profiles")
		stack  = fl.Bool("cpistack", false, "print per-core CPI stacks (interval model only)")
		rep    = fl.Bool("report", false, "print the full post-run report (hierarchy, bus, DRAM, coherence)")
		asJSON = fl.Bool("json", false, "print the machine-readable result summary (report.JSON)")

		fabric    = knob("fabric", "on-chip interconnect")
		coherence = knob("coherence", "coherence protocol")
		dram      = knob("dram", "main-memory model")
		prefetch  = knob("prefetch", "prefetcher")
		predictor = knob("predictor", "direction predictor")

		cpuprofile = fl.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fl.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = fl.String("trace", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or ui.perfetto.dev)")
		progress   = fl.Bool("progress", false, "print live progress lines (retired, MIPS, ETA) to stderr")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	flush, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer flush()

	if *list {
		fmt.Fprintln(stdout, "SPEC CPU2000-like (single-threaded):")
		for _, p := range workload.SPEC() {
			fmt.Fprintf(stdout, "  %s\n", p.Name)
		}
		fmt.Fprintln(stdout, "PARSEC-like (multi-threaded, full-system):")
		for _, p := range workload.PARSEC() {
			fmt.Fprintf(stdout, "  %s\n", p.Name)
		}
		return 0
	}
	if *bench == "" {
		fl.Usage()
		return 2
	}
	if *stack && *model != "interval" {
		fmt.Fprintln(stderr, "-cpistack requires -model interval")
		return 2
	}

	spec := simrun.Spec{
		Bench: *bench, Model: *model, Cores: *cores, Copies: *copies,
		Insts: *insts, Warmup: *warmup, Seed: seed,
		Fabric: *fabric, Coherence: *coherence, DRAM: *dram, Prefetch: *prefetch, Predictor: *predictor,
		Report: *stack || *rep || *asJSON,
	}
	// Observability rides the scenario but never its fingerprint or
	// result bytes: -trace and -progress change what is printed, not
	// what is simulated.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	opts := spec.Options()
	if tracer != nil || *progress {
		obsv := &obs.Observer{Tracer: tracer}
		if *progress {
			obsv.Progress = func(p obs.Progress) {
				fmt.Fprintf(stderr, "intervalsim: %s\n", p)
			}
		}
		opts = append(opts, simrun.Observe(obsv))
	}
	// simrun validates every field eagerly: an unknown model, benchmark,
	// fabric, coherence protocol, DRAM model, prefetcher or predictor
	// name is a usage error, never silently ignored.
	s, err := simrun.New(*bench, opts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	res, err := s.Run(ctx)
	if tracer != nil {
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			fmt.Fprintln(stderr, werr)
			if err == nil {
				return 1
			}
		}
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(stderr, err)
		return 1
	}
	exit := 0
	if interrupted {
		fmt.Fprintln(stderr, "intervalsim: interrupted, printing partial results")
		exit = 130
	}
	if *asJSON {
		raw, err := report.JSON(res.Result)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", raw)
		if res.TimedOut && exit == 0 {
			exit = 1
		}
		return exit
	}
	if *rep {
		fmt.Fprint(stdout, report.Format(res.Result))
		if res.TimedOut && exit == 0 {
			exit = 1
		}
		return exit
	}

	fmt.Fprintf(stdout, "benchmark=%s model=%s cores=%d\n", *bench, res.Model, s.Threads())
	fmt.Fprintf(stdout, "cycles=%d total-instructions=%d wall=%v (%.2f MIPS)\n",
		res.Cycles, res.TotalRetired, res.Wall, res.MIPS())
	for i, c := range res.Cores {
		fmt.Fprintf(stdout, "  core %d: retired=%d finish=%d IPC=%.3f\n", i, c.Retired, c.Finish, c.IPC)
	}
	if *stack {
		for i, sc := range res.Sim {
			if ic, ok := sc.(*core.Core); ok {
				fmt.Fprintf(stdout, "core %d %s", i, ic.Stack())
			}
		}
	}
	if res.TimedOut {
		fmt.Fprintln(stdout, "WARNING: run hit the cycle limit before completing")
		if exit == 0 {
			exit = 1
		}
	}
	return exit
}
