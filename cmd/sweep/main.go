// Command sweep explores a design space with interval simulation — the
// paper's headline use case: cull a large space quickly with the analytical
// core model, so that detailed simulation can focus on the surviving region.
//
//	-sweep core    ROB size × dispatch width (core sizing)
//	-sweep l2      L2 capacity (cache sizing)
//	-sweep fabric  bus vs mesh vs ring on-chip interconnect, 4-16 cores
//	-sweep dram    fixed-latency vs banked row-buffer DRAM
//	-f batch.json  a simrun.SpecFile, the wire format simd accepts
//
// Every mode is three steps: produce one simrun.Spec per point, run the
// list through one executor (-j points in flight, in-process or, with
// -fleet http://host:8080, on a simd service or fleet coordinator), and
// print one table from each point's report.Summary. The table is the same
// at any -j, local or remote.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/simrun"
)

// main runs the sweep under a context that Ctrl-C / SIGTERM cancels:
// in-flight points stop at the driver's next poll and the sweep exits 130.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		sweep    = fl.String("sweep", "core", "design-space sweep: core, l2, fabric, dram")
		file     = fl.String("f", "", "run a declarative scenario batch from this spec file instead of a built-in sweep")
		profiles = fl.String("profiles", "gcc,mcf,swim", "comma-separated benchmark profiles")
		insts    = fl.Int("n", 50_000, "measured instructions per run")
		warm     = fl.Int("warmup", 300_000, "functional warmup instructions per run")
		seed     = fl.Int64("seed", 42, "workload generation seed")
		detailed = fl.Bool("detailed", false, "cross-check each point with the detailed model (slow)")
		jobs     = fl.Int("j", 1, "points in flight at once (0 = all host cores)")
		fleetURL = fl.String("fleet", "", "run every point on the simd service at this base URL instead of simulating locally")

		cpuprofile = fl.String("cpuprofile", "", "write a CPU profile to this file (written on normal exit)")
		memprofile = fl.String("memprofile", "", "write a heap profile to this file on normal exit")
		traceOut   = fl.String("trace", "", "write a Chrome trace_event JSON of the whole sweep to this file")
		progress   = fl.Bool("progress", false, "print live per-scenario progress lines (retired, MIPS, ETA) to stderr")
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

	s := &sweeper{ctx: ctx, detailed: *detailed, jobs: *jobs,
		base: simrun.Spec{Insts: *insts, Warmup: *warm, Seed: seed}, obsv: &obs.Observer{}}
	// One trace ring for the whole sweep, written even when interrupted.
	if *traceOut != "" {
		s.obsv.Tracer = obs.NewTracer(1 << 18)
		defer func() {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = errors.Join(s.obsv.Tracer.WriteChrome(f), f.Close())
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}
	if *progress {
		s.obsv.Progress = func(p obs.Progress) { fmt.Fprintf(stderr, "sweep: %s\n", p) }
	}
	if *fleetURL != "" {
		s.remote = &remote{Client: fleet.Client{Base: *fleetURL}}
		s.remote.Retry.OnRetry = func(string, int) { s.remote.retried.Add(1) }
		if *progress {
			s.remote.progress = stderr
		}
	}

	if *detailed && (*file != "" || *sweep == "fabric") {
		fmt.Fprintln(stderr, "sweep: -detailed cross-checks the core, l2 and dram grids only: it cannot be combined with -f or -sweep fabric")
		return 2
	}
	var tab table
	if *file != "" {
		tab, err = s.batch(*file)
	} else {
		tab, err = s.builtin(*sweep, strings.Split(*profiles, ","))
	}
	for i := 0; err == nil && i < len(tab.specs); i++ {
		_, err = tab.specs[i].Scenario()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintln(stdout, tab.title)
	var out []outcome
	if out, err = s.execute(tab.specs); err == nil {
		tab.print(stdout, out)
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "sweep: interrupted")
		return 130
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

type sweeper struct {
	ctx      context.Context
	base     simrun.Spec // -n, -warmup, -seed: built-in sizing, spec-file fallback
	detailed bool
	jobs     int
	obsv     *obs.Observer // one tracer and progress sink (each may be nil) for every local point
	remote   *remote       // when set, points run on a simd service instead
}

// table is one sweep ready to run: a title, one spec per point, a printer.
type table struct {
	title string
	specs []simrun.Spec
	print func(w io.Writer, out []outcome)
}

// outcome is one finished point: its summary and, when it ran remotely, the
// tier and worker that answered it.
type outcome struct {
	sum          report.Summary
	tier, worker string
}

func (o outcome) ipc() float64 {
	if o.sum.Cycles <= 0 {
		return 0
	}
	return float64(o.sum.Instructions) / float64(o.sum.Cycles)
}

// name labels a point in tables and error messages.
func name(sp simrun.Spec) string {
	return cmp.Or(sp.Label, sp.Bench, "mix:"+strings.Join(sp.Mix, "+"))
}

// execute runs the specs -j at a time, checking the context before each,
// and returns their outcomes or the first failure, both in input order.
func (s *sweeper) execute(specs []simrun.Spec) ([]outcome, error) {
	runOne := s.local
	if s.remote != nil {
		runOne = s.remote.run
		defer s.remote.watch(len(specs))()
	}
	out := make([]outcome, len(specs))
	errs := make([]error, len(specs))
	simrun.Each(len(specs), s.jobs, func(i int) {
		if errs[i] = s.ctx.Err(); errs[i] == nil {
			out[i], errs[i] = runOne(s.ctx, specs[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", name(specs[i]), err)
		}
	}
	return out, nil
}

// local runs one point in-process. Scenario.Run isolates engine panics,
// so a poisoned point fails alone.
func (s *sweeper) local(ctx context.Context, sp simrun.Spec) (outcome, error) {
	sc, err := sp.Scenario()
	if err != nil {
		return outcome{}, err
	}
	sc.SetObserver(s.obsv)
	res, err := sc.Run(ctx)
	return outcome{sum: report.Summarize(res.Result)}, err
}

// remote runs points on a simd service or fleet coordinator. Under
// -progress it heartbeats jobs done, in flight, retried and by whom.
type remote struct {
	fleet.Client
	progress          io.Writer // the -progress sink; nil = quiet
	hb                *obs.Heartbeat
	done              atomic.Uint64
	inflight, retried atomic.Int64
	mu                sync.Mutex
	perWorker         map[string]int
}

func (r *remote) run(ctx context.Context, sp simrun.Spec) (o outcome, err error) {
	r.inflight.Add(1)
	res, err := r.SubmitAndWait(ctx, sp)
	if err == nil {
		err = json.Unmarshal(res.Payload, &o.sum)
		o.tier, o.worker = res.Tier, res.Worker
	}
	r.mu.Lock()
	r.perWorker[cmp.Or(res.Worker, "local")]++
	r.mu.Unlock()
	r.inflight.Add(-1)
	r.hb.Tick(r.done.Add(1))
	return o, err
}

// watch heartbeats a list of n points, on completions and on a timer so
// the line moves during long jobs, until stop; Final skips a repeat.
func (r *remote) watch(n int) (stop func()) {
	r.done.Store(0)
	r.perWorker = map[string]int{}
	if r.progress == nil {
		return func() {}
	}
	r.hb = &obs.Heartbeat{Budget: uint64(n), Emit: r.emit}
	quit, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(200 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				r.hb.Tick(r.done.Load())
			}
		}
	}()
	return func() {
		close(quit)
		<-stopped
		r.hb.Final(r.done.Load())
	}
}

func (r *remote) emit(p obs.Progress) {
	r.mu.Lock()
	// fmt prints a map's keys in sorted order: "map[local:1 w1:2]".
	byWorker := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprint(r.perWorker), "map["), "]")
	r.mu.Unlock()
	if byWorker != "" {
		byWorker = " " + byWorker
	}
	fmt.Fprintf(r.progress, "sweep: fleet %d/%d jobs done, %d in flight, %d retried%s\n",
		p.Retired, p.Budget, r.inflight.Load(), r.retried.Load(), byWorker)
}

// batch loads the spec file at path, with -n, -warmup and -seed filling in
// what neither a scenario nor the file's defaults set.
func (s *sweeper) batch(path string) (table, error) {
	f, err := os.Open(path)
	if err != nil {
		return table{}, err
	}
	defer f.Close()
	specs, err := simrun.LoadRawSpecs(f, s.base)
	if err != nil {
		return table{}, fmt.Errorf("sweep: %s: %w", path, err)
	}
	t := table{specs: specs, title: fmt.Sprintf("== scenario batch: %s (%d scenarios) ==", path, len(specs))}
	if s.remote != nil {
		t.title = fmt.Sprintf("== scenario batch: %s via %s (%d scenarios) ==", path, s.remote.Base, len(specs))
	}
	t.print = func(w io.Writer, out []outcome) {
		if s.remote == nil {
			fmt.Fprintf(w, "%-28s %-10s %6s %12s %10s\n", "scenario", "model", "cores", "cycles", "IPC")
			for i, o := range out {
				fmt.Fprintf(w, "%-28s %-10s %6d %12d %10.3f\n", name(specs[i]), o.sum.Model, len(o.sum.Cores), o.sum.Cycles, o.ipc())
			}
			return
		}
		fmt.Fprintf(w, "%-28s %-10s %-12s %-14s %12s %10s\n", "scenario", "model", "tier", "worker", "cycles", "IPC")
		for i, o := range out {
			fmt.Fprintf(w, "%-28s %-10s %-12s %-14s %12d %10.3f\n",
				name(specs[i]), o.sum.Model, cmp.Or(o.tier, "-"), cmp.Or(o.worker, "-"), o.sum.Cycles, o.ipc())
		}
	}
	return t, nil
}

// row is one configuration of a built-in sweep: its label and the spec
// fields that select it.
type row struct {
	label string
	spec  simrun.Spec
}

// builtin produces the named built-in sweep over the profiles. A machine
// tweak is a tweaked Table 1 machine in Spec.Machine; the rest are knobs.
func (s *sweeper) builtin(sweep string, names []string) (table, error) {
	var rows []row
	switch sweep {
	case "core":
		for _, rob := range []int{64, 128, 256, 512} {
			for _, width := range []int{2, 4, 8} {
				m := config.Default(1)
				m.Core.ROBSize = rob
				m.Core.DecodeWidth, m.Core.IssueWidth, m.Core.FetchWidth = width, width+2, 2*width
				rows = append(rows, row{fmt.Sprintf("ROB=%-4d width=%d", rob, width), simrun.Spec{Machine: &m}})
			}
		}
		return s.grid("== core sizing: IPC by ROB size x dispatch width (interval model) ==", rows, names), nil
	case "l2":
		for _, mb := range []int{1, 2, 4, 8} {
			m := config.Default(1)
			m.Mem.L2.SizeBytes = mb << 20
			rows = append(rows, row{fmt.Sprintf("L2=%dMB", mb), simrun.Spec{Machine: &m}})
		}
		m := config.Default(1)
		m.Mem.HasL2 = false
		rows = append(rows, row{"no L2", simrun.Spec{Machine: &m}})
		return s.grid("== cache sizing: IPC by shared L2 capacity (interval model) ==", rows, names), nil
	case "dram":
		m := config.Default(1)
		m.Mem.DRAMBanks = 32
		rows = []row{{"fixed 150cy", simrun.Spec{}}, {"banked 90/180cy", simrun.Spec{DRAM: "banked"}},
			{"banked, 32 banks", simrun.Spec{DRAM: "banked", Machine: &m}}}
		return s.grid("== main memory: IPC with fixed-latency vs banked row-buffer DRAM (interval model) ==", rows, names), nil
	case "fabric":
		// Multi-program points that keep the hierarchy for its fabric stats.
		var specs []simrun.Spec
		for _, cores := range []int{4, 8, 16} {
			for _, fabric := range config.Names("Mem.Interconnect") {
				label := fmt.Sprintf("%d cores, %s", cores, fabric)
				specs = append(specs, simrun.Spec{Label: label, Mix: names, Cores: cores, Fabric: fabric, Report: true,
					Insts: s.base.Insts, Warmup: s.base.Warmup, Seed: s.base.Seed})
			}
		}
		return table{"== interconnect: multi-program cycles by fabric and core count (interval model) ==", specs,
			func(w io.Writer, out []outcome) {
				fmt.Fprintf(w, "%-22s %12s %14s %12s\n", "configuration", "cycles", "fabric-stall", "utilization")
				for i, o := range out {
					fab := o.sum.Mem.Fabric
					fmt.Fprintf(w, "%-22s %12d %14d %11.1f%%\n", specs[i].Label, o.sum.Cycles, fab.StallCycles, 100*fab.Utilization)
				}
			}}, nil
	}
	return table{}, fmt.Errorf("unknown sweep %q (want core, l2, fabric or dram)", sweep)
}

// grid produces one point per (row, profile) cell — plus a detailed-model
// twin per cell under -detailed — and prints the IPC table.
func (s *sweeper) grid(title string, rows []row, names []string) table {
	var specs []simrun.Spec
	for _, r := range rows {
		for _, bench := range names {
			sp := r.spec
			sp.Bench, sp.Label = bench, bench+" "+r.label
			sp.Insts, sp.Warmup, sp.Seed = s.base.Insts, s.base.Warmup, s.base.Seed
			specs = append(specs, sp)
			if s.detailed {
				sp.Model = "detailed"
				specs = append(specs, sp)
			}
		}
	}
	return table{title, specs, func(w io.Writer, out []outcome) {
		fmt.Fprintf(w, "%-22s", "configuration")
		for _, n := range names {
			fmt.Fprintf(w, " %10s", n)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s", r.label)
			for range names {
				cell := fmt.Sprintf(" %10.3f", out[0].sum.Cores[0].IPC)
				if s.detailed {
					cell, out = fmt.Sprintf(" %5.2f/%4.2f", out[0].sum.Cores[0].IPC, out[1].sum.Cores[0].IPC), out[1:]
				}
				fmt.Fprint(w, cell)
				out = out[1:]
			}
			fmt.Fprintln(w)
		}
	}}
}
