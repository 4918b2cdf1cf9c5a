// Command sweep explores a design space with interval simulation — the
// paper's headline use case: culling a large space quickly with the
// analytical core model, so that detailed simulation can focus on the
// surviving region.
//
// Four sweeps are built in:
//
//	-sweep core    ROB size × dispatch width (core sizing)
//	-sweep l2      L2 capacity (cache sizing)
//	-sweep fabric  bus vs mesh vs ring on-chip interconnect, 4-16 cores
//	-sweep dram    fixed-latency vs banked row-buffer DRAM
//
// Each prints one IPC (or cycles) table over a set of benchmark profiles.
// Every point is an independent simrun scenario, so -j N runs the whole
// sweep across N host cores; results are deterministic and identical to
// the sequential run.
//
//	go run ./cmd/sweep -sweep core -profiles gcc,mcf,swim -j 8
//
// Alternatively, -f sweep.json runs a declarative scenario batch: a
// simrun.SpecFile of shared defaults plus one spec per scenario — the
// same wire format the simd service accepts, so a service query is
// copy-pasteable into a batch file and vice versa.
//
// -adaptive turns any sweep (built-in or -f) into a two-phase run: the
// statistical engine estimates every point first, the estimates rank the
// space, and only the -top fraction (plus any point the cheap tier cannot
// run) is re-simulated at full fidelity. The table reports both numbers
// and the tier that produced each final answer.
//
// -fleet http://host:8080 submits the -f batch to a simd service (or
// fleet coordinator — see docs/fleet.md) instead of simulating locally:
// -j then bounds in-flight submissions, transient HTTP failures retry
// with capped backoff, and the table reports which worker answered each
// point. Results are byte-identical to the local run — the service runs
// the same engines over the same wire specs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	// Register the estimator engines for -adaptive and for spec files
	// that pin "engine".
	_ "repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/simrun"
)

// exitWith terminates the process; main replaces it with a version that
// flushes any active profiles first, so error and interrupt exits still
// leave usable profile files.
var exitWith = os.Exit

func main() {
	var (
		sweep    = flag.String("sweep", "core", "design-space sweep: core, l2, fabric, dram")
		file     = flag.String("f", "", "run a declarative scenario batch from this spec file instead of a built-in sweep")
		profiles = flag.String("profiles", "gcc,mcf,swim", "comma-separated benchmark profiles")
		insts    = flag.Int("n", 50_000, "measured instructions per run")
		warm     = flag.Int("warmup", 300_000, "functional warmup instructions per run")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		detailed = flag.Bool("detailed", false, "cross-check each point with the detailed model (slow)")
		jobs     = flag.Int("j", 1, "host worker goroutines (0 = all host cores)")
		adaptive = flag.Bool("adaptive", false, "estimate every point with the statistical engine first, then spend full fidelity on the top fraction")
		top      = flag.Float64("top", 0.25, "with -adaptive, the fraction of the space promoted to full fidelity")
		fleetURL = flag.String("fleet", "", "submit the -f batch to the simd service at this base URL instead of simulating locally")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (written on normal exit)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on normal exit")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the whole sweep to this file")
		progress   = flag.Bool("progress", false, "print live per-scenario progress lines (retired, MIPS, ETA) to stderr")
	)
	flag.Parse()

	// Profiles so future perf work on the sweep paths starts from data.
	// flush runs on every exit path — including errors and the SIGINT 130
	// exit, where a profile of the long run is most wanted — via the
	// exitWith indirection used by all error handling below.
	flush, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer flush()

	// The sweep-wide trace collects every scenario's spans in one ring;
	// like the profiles, it is written on every exit path so an
	// interrupted sweep still leaves a loadable trace.
	var tracer *obs.Tracer
	writeTrace := func() {}
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 18)
		var once sync.Once
		writeTrace = func() {
			once.Do(func() {
				f, err := os.Create(*traceOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				if err := tracer.WriteChrome(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				f.Close()
			})
		}
	}
	defer writeTrace()
	exitWith = func(code int) {
		flush()
		writeTrace()
		os.Exit(code)
	}

	// Ctrl-C / SIGTERM cancels the batch: in-flight scenarios stop at
	// the driver's next poll and the sweep exits instead of running on.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *top <= 0 || *top > 1 {
		fmt.Fprintf(os.Stderr, "sweep: -top %v out of range (0, 1]\n", *top)
		exitWith(2)
	}
	s := &sweeper{ctx: ctx, insts: *insts, warm: *warm, seed: *seed, detailed: *detailed, jobs: *jobs, adaptive: *adaptive, top: *top, progress: *progress}
	if tracer != nil || *progress {
		s.obsv = &obs.Observer{Tracer: tracer}
		if *progress {
			s.obsv.Progress = func(p obs.Progress) {
				fmt.Fprintf(os.Stderr, "sweep: %s\n", p)
			}
		}
	}
	if *fleetURL != "" {
		// Only declarative batches can travel: built-in grid sweeps tweak
		// machines with Go closures, which have no wire form.
		if *file == "" {
			fmt.Fprintln(os.Stderr, "sweep: -fleet needs a declarative batch: add -f <specfile>")
			exitWith(2)
		}
		if *adaptive {
			fmt.Fprintln(os.Stderr, "sweep: -adaptive is a local two-phase runner; submit to a -tiered simd instead of combining it with -fleet")
			exitWith(2)
		}
		s.sweepFleet(*file, *fleetURL)
		return
	}
	if *file != "" {
		s.sweepFile(*file)
		return
	}
	names := strings.Split(*profiles, ",")
	switch *sweep {
	case "core":
		s.sweepCore(names)
	case "l2":
		s.sweepL2(names)
	case "fabric":
		s.sweepFabric(names)
	case "dram":
		s.sweepDRAM(names)
	default:
		fmt.Fprintf(os.Stderr, "unknown sweep %q (want core, l2, fabric or dram)\n", *sweep)
		exitWith(2)
	}
}

type sweeper struct {
	ctx         context.Context
	insts, warm int
	seed        int64
	detailed    bool
	jobs        int
	adaptive    bool
	top         float64
	// obsv, when set, is attached to every scenario the sweep runs: one
	// shared tracer and progress sink across the whole batch.
	obsv *obs.Observer
	// progress mirrors -progress for the fleet path, where there is no
	// local scenario to observe: the live line counts jobs instead of
	// instructions.
	progress bool
}

// scenario builds one sweep scenario, treating a bad benchmark name (or
// any other scenario error) as a usage error.
func scenario(bench string, opts ...simrun.Option) *simrun.Scenario {
	sc, err := simrun.New(bench, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitWith(2)
	}
	return sc
}

// point builds the scenario for one (profile, machine-tweak) grid point.
func (s *sweeper) point(name, model string, tweak func(*config.Machine)) *simrun.Scenario {
	return scenario(name,
		simrun.Model(model),
		simrun.Insts(s.insts),
		simrun.Warmup(s.warm),
		simrun.Seed(s.seed),
		simrun.Configure(tweak),
	)
}

// run executes the scenarios across the host worker pool and returns the
// results in input order, exiting on the first failure.
func (s *sweeper) run(scs []*simrun.Scenario) []simrun.BatchResult {
	if s.obsv != nil {
		for _, sc := range scs {
			sc.SetObserver(s.obsv)
		}
	}
	results := simrun.Batch(s.ctx, scs, simrun.BatchOpts{Workers: s.jobs})
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweep: interrupted")
			exitWith(130)
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", r.Scenario.Name(), r.Err)
			exitWith(1)
		}
	}
	return results
}

// adaptiveRun is the two-phase budgeted sweep: phase one estimates every
// scenario with the cheap statistical engine; the estimates rank the
// space (highest estimated IPC first — the promising region detailed
// simulation should focus on); phase two re-runs the top -top fraction at
// full fidelity. Scenarios the statistical engine cannot run
// (multi-threaded or multi-program points) skip phase one and are always
// promoted. One row per scenario reports both numbers and the tier of the
// final answer.
func (s *sweeper) adaptiveRun(scs []*simrun.Scenario) {
	type row struct {
		sc       *simrun.Scenario
		estIPC   float64
		hasEst   bool
		promoted bool
		fullIPC  float64
		tier     string
	}
	rows := make([]*row, len(scs))
	var estScs []*simrun.Scenario
	var estRows []*row
	for i, sc := range scs {
		rows[i] = &row{sc: sc}
		est, err := sc.ForEngine("statistical")
		if err != nil {
			rows[i].promoted = true
			continue
		}
		rows[i].hasEst = true
		estScs = append(estScs, est)
		estRows = append(estRows, rows[i])
	}

	budget := int(float64(len(estScs))*s.top + 0.5)
	if budget < 1 && len(estScs) > 0 {
		budget = 1
	}
	fmt.Printf("== adaptive: %d scenarios, %d statistical estimates, full fidelity on top %d + %d unsupported ==\n",
		len(scs), len(estScs), budget, len(scs)-len(estScs))

	for i, br := range s.run(estScs) {
		res := br.Result
		if res.Cycles > 0 {
			estRows[i].estIPC = float64(res.TotalRetired) / float64(res.Cycles)
		}
		estRows[i].tier = string(br.Result.Tier)
	}
	ranked := append([]*row(nil), estRows...)
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].estIPC > ranked[b].estIPC })
	for i := 0; i < budget && i < len(ranked); i++ {
		ranked[i].promoted = true
	}

	var fullScs []*simrun.Scenario
	var fullRows []*row
	for _, r := range rows {
		if r.promoted {
			fullScs = append(fullScs, r.sc)
			fullRows = append(fullRows, r)
		}
	}
	for i, br := range s.run(fullScs) {
		res := br.Result
		if res.Cycles > 0 {
			fullRows[i].fullIPC = float64(res.TotalRetired) / float64(res.Cycles)
		}
		fullRows[i].tier = string(br.Result.Tier)
	}

	// Ranked estimates first, then the points that never had one.
	order := ranked
	for _, r := range rows {
		if !r.hasEst {
			order = append(order, r)
		}
	}
	fmt.Printf("%4s %-34s %10s %10s %12s\n", "rank", "scenario", "est IPC", "full IPC", "tier")
	for i, r := range order {
		est, full := "-", "-"
		if r.hasEst {
			est = fmt.Sprintf("%.3f", r.estIPC)
		}
		if r.promoted {
			full = fmt.Sprintf("%.3f", r.fullIPC)
		}
		fmt.Printf("%4d %-34s %10s %10s %12s\n", i+1, r.sc.Name(), est, full, r.tier)
	}
}

// sweepFile runs the declarative batch in the named simrun.SpecFile and
// prints one row per scenario.
func (s *sweeper) sweepFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitWith(2)
	}
	// The sizing flags back up the file: a scenario (or the file's
	// defaults) that omits insts/warmup/seed runs with -n/-warmup/-seed
	// rather than the builder's defaults.
	seed := s.seed
	scs, err := simrun.LoadSpecs(f, simrun.Spec{Insts: s.insts, Warmup: s.warm, Seed: &seed})
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", path, err)
		exitWith(2)
	}

	if s.adaptive {
		fmt.Printf("== scenario batch: %s ==\n", path)
		s.adaptiveRun(scs)
		return
	}
	fmt.Printf("== scenario batch: %s (%d scenarios) ==\n", path, len(scs))
	fmt.Printf("%-28s %-10s %6s %12s %10s\n", "scenario", "model", "cores", "cycles", "IPC")
	for _, r := range s.run(scs) {
		res := r.Result
		var ipc float64
		if res.Cycles > 0 {
			ipc = float64(res.TotalRetired) / float64(res.Cycles)
		}
		fmt.Printf("%-28s %-10s %6d %12d %10.3f\n",
			r.Scenario.Name(), res.ModelLabel(), r.Scenario.Threads(), res.Cycles, ipc)
	}
}

// sweepFleet submits the declarative batch to a remote simd service and
// prints one row per scenario, including the worker that answered when
// the service runs a fleet. Submissions fan out across -j goroutines;
// each one retries transient HTTP failures (5xx, backpressure,
// connection refused/reset) under the client's capped, jittered backoff.
func (s *sweeper) sweepFleet(path, base string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitWith(2)
	}
	seed := s.seed
	specs, err := simrun.LoadRawSpecs(f, simrun.Spec{Insts: s.insts, Warmup: s.warm, Seed: &seed})
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", path, err)
		exitWith(2)
	}

	type row struct {
		name, model, tier, worker string
		cycles                    int64
		ipc                       float64
		err                       error
	}
	rows := make([]row, len(specs))
	cl := &fleet.Client{Base: base}
	workers := s.jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	// Under -progress the fleet path has no local scenario to heartbeat,
	// so the sweep heartbeats itself: the throttled line counts jobs
	// done / in flight / retried and which worker answered each, ticked
	// both on completions and on a timer so the line moves during long
	// jobs. The client's retry hook is the only retry signal a purely
	// remote sweep has.
	var done atomic.Uint64
	var inflight, retried atomic.Int64
	var pmu sync.Mutex
	perWorker := map[string]int{}
	var hb *obs.Heartbeat
	var stopTick chan struct{}
	if s.progress {
		hb = &obs.Heartbeat{
			Budget: uint64(len(specs)),
			Emit: func(p obs.Progress) {
				pmu.Lock()
				ids := make([]string, 0, len(perWorker))
				for id := range perWorker {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				var byWorker strings.Builder
				for _, id := range ids {
					fmt.Fprintf(&byWorker, " %s:%d", id, perWorker[id])
				}
				pmu.Unlock()
				fmt.Fprintf(os.Stderr, "sweep: fleet %d/%d jobs done, %d in flight, %d retried%s\n",
					p.Retired, p.Budget, inflight.Load(), retried.Load(), byWorker.String())
			},
		}
		cl.Retry.OnRetry = func(string, int) { retried.Add(1) }
		stopTick = make(chan struct{})
		go func() {
			ticker := time.NewTicker(200 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-ticker.C:
					hb.Tick(done.Load())
				}
			}
		}()
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				sp := specs[i]
				r := row{name: fleetSpecName(sp)}
				inflight.Add(1)
				res, err := cl.SubmitAndWait(s.ctx, sp)
				if err == nil {
					var sum report.Summary
					err = json.Unmarshal(res.Payload, &sum)
					r.model, r.tier, r.worker = sum.Model, res.Tier, res.Worker
					r.cycles = sum.Cycles
					if sum.Cycles > 0 {
						r.ipc = float64(sum.Instructions) / float64(sum.Cycles)
					}
				}
				r.err = err
				rows[i] = r
				inflight.Add(-1)
				done.Add(1)
				if s.progress {
					pmu.Lock()
					who := r.worker
					if who == "" {
						who = "local"
					}
					perWorker[who]++
					pmu.Unlock()
					hb.Tick(done.Load())
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if s.progress {
		close(stopTick)
		// Final is suppressed when the closing Tick already reported this
		// exact count — no duplicate last line.
		hb.Final(done.Load())
	}

	for _, r := range rows {
		if errors.Is(r.err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweep: interrupted")
			exitWith(130)
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", r.name, r.err)
			exitWith(1)
		}
	}
	fmt.Printf("== scenario batch: %s via %s (%d scenarios) ==\n", path, base, len(specs))
	fmt.Printf("%-28s %-10s %-12s %-14s %12s %10s\n", "scenario", "model", "tier", "worker", "cycles", "IPC")
	for _, r := range rows {
		tier, worker := r.tier, r.worker
		if tier == "" {
			tier = "-"
		}
		if worker == "" {
			worker = "-"
		}
		fmt.Printf("%-28s %-10s %-12s %-14s %12d %10.3f\n", r.name, r.model, tier, worker, r.cycles, r.ipc)
	}
}

// fleetSpecName labels one wire spec in the fleet table and in errors.
func fleetSpecName(sp simrun.Spec) string {
	switch {
	case sp.Label != "":
		return sp.Label
	case sp.Bench != "":
		return sp.Bench
	default:
		return "mix:" + strings.Join(sp.Mix, "+")
	}
}

// grid runs one scenario per (row, profile) cell — plus a detailed-model
// twin per cell when cross-checking — and prints the IPC table. Under
// -adaptive the grid is flattened into one labeled scenario per cell and
// handed to the two-phase estimate-then-promote runner instead.
func (s *sweeper) grid(labels []string, names []string, tweaks []func(*config.Machine)) {
	if s.adaptive {
		var scs []*simrun.Scenario
		for ti, tweak := range tweaks {
			for _, name := range names {
				scs = append(scs, scenario(name,
					simrun.Model("interval"),
					simrun.Insts(s.insts),
					simrun.Warmup(s.warm),
					simrun.Seed(s.seed),
					simrun.Configure(tweak),
					simrun.Label(name+" "+labels[ti]),
				))
			}
		}
		s.adaptiveRun(scs)
		return
	}
	var scs []*simrun.Scenario
	for _, tweak := range tweaks {
		for _, name := range names {
			scs = append(scs, s.point(name, "interval", tweak))
			if s.detailed {
				scs = append(scs, s.point(name, "detailed", tweak))
			}
		}
	}
	results := s.run(scs)

	s.header(names)
	perCell := 1
	if s.detailed {
		perCell = 2
	}
	i := 0
	for _, label := range labels {
		fmt.Printf("%-22s", label)
		for range names {
			iv := results[i].Result.Cores[0].IPC
			if s.detailed {
				det := results[i+1].Result.Cores[0].IPC
				fmt.Printf(" %5.2f/%4.2f", iv, det)
			} else {
				fmt.Printf(" %10.3f", iv)
			}
			i += perCell
		}
		fmt.Println()
	}
}

func (s *sweeper) header(names []string) {
	fmt.Printf("%-22s", "configuration")
	for _, n := range names {
		fmt.Printf(" %10s", n)
	}
	fmt.Println()
}

func (s *sweeper) sweepCore(names []string) {
	fmt.Println("== core sizing: IPC by ROB size x dispatch width (interval model) ==")
	var labels []string
	var tweaks []func(*config.Machine)
	for _, rob := range []int{64, 128, 256, 512} {
		for _, width := range []int{2, 4, 8} {
			labels = append(labels, fmt.Sprintf("ROB=%-4d width=%d", rob, width))
			tweaks = append(tweaks, func(m *config.Machine) {
				m.Core.ROBSize = rob
				m.Core.DecodeWidth = width
				m.Core.IssueWidth = width + 2
				m.Core.FetchWidth = 2 * width
			})
		}
	}
	s.grid(labels, names, tweaks)
}

func (s *sweeper) sweepL2(names []string) {
	fmt.Println("== cache sizing: IPC by shared L2 capacity (interval model) ==")
	var labels []string
	var tweaks []func(*config.Machine)
	for _, mb := range []int{1, 2, 4, 8} {
		labels = append(labels, fmt.Sprintf("L2=%dMB", mb))
		tweaks = append(tweaks, func(m *config.Machine) { m.Mem.L2.SizeBytes = mb << 20 })
	}
	labels = append(labels, "no L2")
	tweaks = append(tweaks, func(m *config.Machine) { m.Mem.HasL2 = false })
	s.grid(labels, names, tweaks)
}

func (s *sweeper) sweepFabric(names []string) {
	fmt.Println("== interconnect: multi-program cycles by fabric and core count (interval model) ==")
	var scs []*simrun.Scenario
	var labels []string
	for _, cores := range []int{4, 8, 16} {
		for _, fabric := range []string{"bus", "mesh", "ring"} {
			labels = append(labels, fmt.Sprintf("%d cores, %s", cores, fabric))
			scs = append(scs, scenario("",
				simrun.Mix(names...),
				simrun.Cores(cores),
				simrun.Fabric(fabric),
				simrun.Insts(s.insts),
				simrun.Warmup(s.warm),
				simrun.Seed(s.seed),
				simrun.KeepCores(),
				simrun.Label(labels[len(labels)-1]),
			))
		}
	}
	if s.adaptive {
		// Multi-program mixes are outside the statistical engine's reach,
		// so every point is promoted to full fidelity; the adaptive table
		// still reports the tier that answered.
		s.adaptiveRun(scs)
		return
	}
	fmt.Printf("%-22s %12s %14s %12s\n", "configuration", "cycles", "fabric-stall", "utilization")
	for i, r := range s.run(scs) {
		res := r.Result
		fab := res.Mem.Fabric()
		fmt.Printf("%-22s %12d %14d %11.1f%%\n",
			labels[i], res.Cycles, fab.StallCycles(), 100*fab.Utilization(res.Cycles))
	}
}

func (s *sweeper) sweepDRAM(names []string) {
	fmt.Println("== main memory: IPC with fixed-latency vs banked row-buffer DRAM (interval model) ==")
	s.grid(
		[]string{"fixed 150cy", "banked 90/180cy", "banked, 32 banks"},
		names,
		[]func(*config.Machine){
			func(m *config.Machine) {},
			func(m *config.Machine) { m.Mem.DRAMKind = "banked" },
			func(m *config.Machine) { m.Mem.DRAMKind = "banked"; m.Mem.DRAMBanks = 32 },
		},
	)
}
