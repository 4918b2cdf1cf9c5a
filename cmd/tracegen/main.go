// Command tracegen records a benchmark's dynamic instruction stream to a
// binary trace file, or replays a recorded trace through a timing model —
// the functional-first workflow of the paper made explicit: generate once,
// time many.
//
// Usage:
//
//	tracegen -bench gcc -n 1000000 -o gcc.trace          # record
//	tracegen -bench mcf -slot 1 -o mcf.s1.trace          # record one Mix copy
//	tracegen -replay gcc.trace -model interval            # replay & time
//	tracegen -replay gcc.trace -model detailed
//
// -slot records the stream at an address-space slot (workload.NewSlot):
// per-copy traces of a heterogeneous Mix workload are recorded one slot
// per copy, matching what a simrun.Spec Mix generates in-process. The trace
// header (file format v3, see docs/formats.md) carries the stream-format
// version and the slot; traces recorded before a stream-format break are
// rejected on replay.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "", "benchmark profile to record")
		n      = flag.Int("n", 1_000_000, "instructions to record")
		out    = flag.String("o", "", "output trace file")
		replay = flag.String("replay", "", "trace file to replay")
		model  = flag.String("model", "interval", "timing model for replay: interval, detailed, oneipc")
		seed   = flag.Int64("seed", 42, "workload seed for recording")
		slot   = flag.Int("slot", 0, "address-space slot to record the stream at (one slot per Mix copy)")
	)
	flag.Parse()

	switch {
	case *bench != "" && *out != "":
		record(*bench, *n, *out, *seed, *slot)
	case *replay != "":
		replayTrace(*replay, *model)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func record(bench string, n int, out string, seed int64, slot int) {
	p := workload.SPECByName(bench)
	if p == nil {
		p = workload.PARSECByName(bench)
	}
	if p == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", bench)
		os.Exit(2)
	}
	if slot < 0 || slot >= workload.MaxSlots {
		fmt.Fprintf(os.Stderr, "slot must be in [0,%d), got %d\n", workload.MaxSlots, slot)
		os.Exit(2)
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	hdr := trace.Header{StreamVersion: workload.StreamVersion, Slot: uint32(slot)}
	written, err := trace.WriteTrace(f, workload.NewSlot(p, 0, 1, seed, slot), n, hdr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d instructions of %s (stream v%d, slot %d) to %s\n",
		written, bench, workload.StreamVersion, slot, out)
}

func replayTrace(path, model string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The file version gate in trace.NewReader only moves when the file
	// layout changes; the stream generation can break without a layout
	// change, so the recorded stream version is checked here too.
	if v := r.Header().StreamVersion; v != workload.StreamVersion {
		fmt.Fprintf(os.Stderr, "trace records stream format v%d, this build generates v%d: the generations are deliberately incompatible — re-record the trace\n",
			v, workload.StreamVersion)
		os.Exit(1)
	}
	fmt.Printf("trace: stream format v%d, slot %d\n", r.Header().StreamVersion, r.Header().Slot)
	s, err := simrun.New("", append(simrun.Spec{Label: path, Model: model}.Options(),
		simrun.Streams([]trace.Stream{r}, nil))...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := r.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "trace replay: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("model=%s instructions=%d cycles=%d IPC=%.3f wall=%v (%.2f MIPS)\n",
		res.ModelLabel(), res.TotalRetired, res.Cycles, res.Cores[0].IPC, res.Wall, res.MIPS())
}
