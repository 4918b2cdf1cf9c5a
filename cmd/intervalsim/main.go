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
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// main delegates to run so deferred profile writers execute before the
// process exits with run's status code.
func main() {
	os.Exit(run())
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

func run() int {
	var (
		bench  = flag.String("bench", "", "benchmark profile name")
		model  = flag.String("model", "interval", "core model: "+strings.Join(simrun.Models(), ", "))
		cores  = flag.Int("cores", 1, "cores (threads for PARSEC profiles)")
		copies = flag.Int("copies", 0, "run N copies of a SPEC profile (multi-program)")
		insts  = flag.Int("insts", 100_000, "per-thread instruction budget for SPEC profiles")
		warmup = flag.Int("warmup", 600_000, "functional warmup instructions per core")
		seed   = flag.Int64("seed", 42, "workload seed")
		list   = flag.Bool("list", false, "list available benchmark profiles")
		stack  = flag.Bool("cpistack", false, "print per-core CPI stacks (interval model only)")
		rep    = flag.Bool("report", false, "print the full post-run report (hierarchy, bus, DRAM, coherence)")
		asJSON = flag.Bool("json", false, "print the machine-readable result summary (report.JSON)")

		fabric    = flag.String("fabric", "bus", "on-chip interconnect: bus, mesh, ring")
		coherence = flag.String("coherence", "moesi", "coherence protocol: moesi, mesi, directory")
		dram      = flag.String("dram", "fixed", "main-memory model: fixed, banked")
		prefetch  = flag.String("prefetch", "none", "prefetcher: none, nextline, stride")
		predictor = flag.String("predictor", "local", "direction predictor: local, gshare, bimodal, tournament, tage, perfect")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or ui.perfetto.dev)")
		progress   = flag.Bool("progress", false, "print live progress lines (retired, MIPS, ETA) to stderr")
	)
	flag.Parse()
	flush, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer flush()

	if *list {
		fmt.Println("SPEC CPU2000-like (single-threaded):")
		for _, p := range workload.SPEC() {
			fmt.Printf("  %s\n", p.Name)
		}
		fmt.Println("PARSEC-like (multi-threaded, full-system):")
		for _, p := range workload.PARSEC() {
			fmt.Printf("  %s\n", p.Name)
		}
		return 0
	}
	if *bench == "" {
		flag.Usage()
		return 2
	}
	if *stack && *model != "interval" {
		fmt.Fprintln(os.Stderr, "-cpistack requires -model interval")
		return 2
	}

	opts := []simrun.Option{
		simrun.Model(*model),
		simrun.Cores(*cores),
		simrun.Insts(*insts),
		simrun.Warmup(*warmup),
		simrun.Seed(*seed),
		simrun.Fabric(*fabric),
		simrun.Coherence(*coherence),
		simrun.DRAM(*dram),
		simrun.Prefetch(*prefetch),
		simrun.Predictor(*predictor),
	}
	if *copies > 0 {
		opts = append(opts, simrun.Copies(*copies))
	}
	if *stack || *rep || *asJSON {
		opts = append(opts, simrun.KeepCores())
	}
	// Observability rides the scenario but never its fingerprint or
	// result bytes: -trace and -progress change what is printed, not
	// what is simulated.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	if tracer != nil || *progress {
		obsv := &obs.Observer{Tracer: tracer}
		if *progress {
			obsv.Progress = func(p obs.Progress) {
				fmt.Fprintf(os.Stderr, "intervalsim: %s\n", p)
			}
		}
		opts = append(opts, simrun.Observe(obsv))
	}
	// simrun validates every knob eagerly: an unknown model, benchmark,
	// fabric, coherence protocol, DRAM model, prefetcher or predictor
	// name is a usage error, never silently ignored.
	s, err := simrun.New(*bench, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Ctrl-C / SIGTERM interrupts the run at the driver's next poll; the
	// partial result is still printed (with its interrupted marker) so a
	// long run cut short is not a total loss.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := s.Run(ctx)
	if tracer != nil {
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			if err == nil {
				return 1
			}
		}
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	if interrupted {
		fmt.Fprintln(os.Stderr, "intervalsim: interrupted, printing partial results")
		exit = 130
	}
	if *asJSON {
		raw, err := report.JSON(res.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s\n", raw)
		if res.TimedOut && exit == 0 {
			exit = 1
		}
		return exit
	}
	if *rep {
		fmt.Print(report.Format(res.Result))
		if res.TimedOut && exit == 0 {
			exit = 1
		}
		return exit
	}

	fmt.Printf("benchmark=%s model=%s cores=%d\n", *bench, res.ModelLabel(), s.Threads())
	fmt.Printf("cycles=%d total-instructions=%d wall=%v (%.2f MIPS)\n",
		res.Cycles, res.TotalRetired, res.Wall, res.MIPS())
	for i, c := range res.Cores {
		fmt.Printf("  core %d: retired=%d finish=%d IPC=%.3f\n", i, c.Retired, c.Finish, c.IPC)
	}
	if *stack {
		for i, sc := range res.Sim {
			if ic, ok := sc.(*core.Core); ok {
				fmt.Printf("core %d %s", i, ic.Stack())
			}
		}
	}
	if res.TimedOut {
		fmt.Println("WARNING: run hit the cycle limit before completing")
		if exit == 0 {
			exit = 1
		}
	}
	return exit
}
