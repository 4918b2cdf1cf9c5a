// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig 5            # one figure or study; -list names all 17 ids
//	experiments -all              # everything, in paper order
//	experiments -list             # list experiments and the baseline config
//	experiments -quick -fig 7     # reduced sizing for a fast look
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	// Ctrl-C / SIGTERM cancels the experiment batch; experiments unwind
	// with ErrInterrupted, recovered here into a clean exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && err == experiments.ErrInterrupted {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			panic(r)
		}
	}()
	var (
		fig    = flag.String("fig", "", "figure or study to regenerate: "+figIDs)
		all    = flag.Bool("all", false, "regenerate every figure")
		list   = flag.Bool("list", false, "list experiments and print the Table 1 baseline")
		quick  = flag.Bool("quick", false, "reduced sizing (smoke run)")
		insts  = flag.Int("insts", 0, "override per-thread instruction budget")
		warmup = flag.Int("warmup", 0, "override functional-warmup length")
		seed   = flag.Int64("seed", 0, "override workload seed")
		jobs   = flag.Int("j", 1, "host worker goroutines for independent runs (0 = all host cores; figures 9/10 stay sequential)")
	)
	flag.Parse()

	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Ctx = ctx
	if *insts > 0 {
		opts.Insts = *insts
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Jobs = *jobs
	if *jobs == 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}

	switch {
	case *list:
		printList()
	case *all:
		for _, t := range opts.All() {
			fmt.Println(t.Format())
		}
		for _, t := range opts.Extensions() {
			fmt.Println(t.Format())
		}
	case *fig != "":
		t, err := runOne(opts, *fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(t.Format())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// figIDs is every id runOne accepts, as -fig's help and its error spell it.
const figIDs = "4a,4b,4c,4d,5,6,7,8,9,10,ablation,model-ablation,fabric,dram,scale16,predictors,cophase"

func runOne(opts experiments.Opts, fig string) (experiments.Table, error) {
	switch fig {
	case "4a", "4b", "4c", "4d":
		return opts.Fig4(fig), nil
	case "5":
		return opts.Fig5(), nil
	case "6":
		return opts.Fig6(), nil
	case "7":
		return opts.Fig7(), nil
	case "8":
		return opts.Fig8(), nil
	case "9":
		return opts.Fig9(), nil
	case "10":
		return opts.Fig10(), nil
	case "ablation":
		return opts.Ablation(), nil
	case "model-ablation":
		return opts.AblationModel(), nil
	case "fabric":
		return opts.Fabric(), nil
	case "dram":
		return opts.DRAMStudy(), nil
	case "scale16":
		return opts.Scale16(), nil
	case "predictors":
		return opts.Predictors(), nil
	case "cophase":
		return opts.CoPhase(), nil
	default:
		return experiments.Table{}, fmt.Errorf("unknown figure %q (want "+figIDs+")", fig)
	}
}

func printList() {
	fmt.Println("Experiments (paper artifact -> -fig argument):")
	fmt.Println("  Figure 4(a-d)  step-by-step accuracy      -fig 4a|4b|4c|4d")
	fmt.Println("  Figure 5       single-threaded accuracy   -fig 5")
	fmt.Println("  Figure 6       multi-program STP/ANTT     -fig 6")
	fmt.Println("  Figure 7       PARSEC scaling accuracy    -fig 7")
	fmt.Println("  Figure 8       3D-stacking case study     -fig 8")
	fmt.Println("  Figure 9       SPEC simulation speedup    -fig 9")
	fmt.Println("  Figure 10      PARSEC simulation speedup  -fig 10")
	fmt.Println("  (extra)        one-IPC ablation           -fig ablation")
	fmt.Println("  (extra)        §6 refinement ablations    -fig model-ablation")
	fmt.Println("  (extra)        bus/mesh/ring fabrics      -fig fabric")
	fmt.Println("  (extra)        fixed vs banked DRAM       -fig dram")
	fmt.Println("  (extra)        16/32-core scaling         -fig scale16")
	fmt.Println("  (extra)        predictor comparison       -fig predictors")
	fmt.Println("  (extra)        co-phase matrix            -fig cophase")
	fmt.Println()
	m := config.Default(1)
	fmt.Println("Table 1 baseline core:")
	fmt.Printf("  ROB %d, IQ %d, LSQ %d, store buffer %d\n",
		m.Core.ROBSize, m.Core.IssueQueueSize, m.Core.LSQSize, m.Core.StoreBufferSize)
	fmt.Printf("  decode/dispatch/commit %d-wide, issue %d-wide, fetch %d-wide\n",
		m.Core.DecodeWidth, m.Core.IssueWidth, m.Core.FetchWidth)
	fmt.Printf("  FUs: %d int, %d load/store, %d FP; latencies load %d, mul %d, fp %d, div %d\n",
		m.Core.IntALUs, m.Core.LoadStoreFUs, m.Core.FPUnits,
		m.Core.LatLoad, m.Core.LatMul, m.Core.LatFP, m.Core.LatDiv)
	fmt.Printf("  fetch queue %d, front-end depth %d\n", m.Core.FetchQueue, m.Core.FrontendDepth)
	fmt.Printf("  predictor: %s (%d x %d-bit histories, %d-entry PHT), BTB %d/%d-way, RAS %d\n",
		m.Branch.Kind, m.Branch.LocalHistoryEntries, m.Branch.LocalHistoryBits,
		m.Branch.PHTEntries, m.Branch.BTBEntries, m.Branch.BTBAssoc, m.Branch.RASEntries)
	fmt.Println("Table 1 memory subsystem:")
	fmt.Printf("  L1I %dKB/%d-way, L1D %dKB/%d-way, L2 %dMB/%d-way %d-cycle (shared), MOESI\n",
		m.Mem.L1I.SizeBytes>>10, m.Mem.L1I.Assoc, m.Mem.L1D.SizeBytes>>10, m.Mem.L1D.Assoc,
		m.Mem.L2.SizeBytes>>20, m.Mem.L2.Assoc, m.Mem.L2.Latency)
	fmt.Printf("  DRAM %d cycles, %dB/cycle memory bus\n", m.Mem.DRAMLatency, m.Mem.BusBytes)
}
