package core

// Options selects ablation variants of the interval model. The zero value
// is the full model (docs/architecture.md, "Core models", names the five
// refinements); each flag disables one
// refinement, either reverting to the paper's literal pseudocode or
// removing a mechanism entirely. The ablation benchmarks measure how much
// accuracy each refinement buys.
type Options struct {
	// NoROBFillHiding charges every long-latency load the full miss
	// latency (the paper's literal approximation), instead of
	// subtracting the dispatch headroom the reorder buffer provides
	// while the miss is outstanding.
	NoROBFillHiding bool
	// FlushOldWindow empties the old window at every miss event (the
	// paper's literal "empty_old_window()"), instead of shifting the
	// tracked dataflow into the past. Flushing loses loop-carried
	// recurrence chains, which makes the post-event dispatch-rate
	// estimate optimistic.
	FlushOldWindow bool
	// NoOverlapScan disables the second-order overlap scan entirely:
	// no miss events are hidden underneath long-latency loads (the
	// first-order model of the prior work the paper extends).
	NoOverlapScan bool
	// NoTaint treats every scanned instruction as independent of the
	// long-latency load at the window head: dependent long-latency
	// loads no longer serialize, and dependent mispredicted branches no
	// longer end the scan.
	NoTaint bool
	// NoDispatchFloor computes the branch resolution time on the pure
	// dataflow track (chain depth since the last miss event), without
	// lower-bounding producer issue times by their dispatch times.
	NoDispatchFloor bool
}

// Name returns a short identifier for the enabled ablations ("full" for
// the zero value), for benchmark and report labels.
func (o Options) Name() string {
	s := ""
	add := func(on bool, tag string) {
		if !on {
			return
		}
		if s != "" {
			s += "+"
		}
		s += tag
	}
	add(o.NoROBFillHiding, "no-robfill")
	add(o.FlushOldWindow, "flush-oldwin")
	add(o.NoOverlapScan, "no-overlap")
	add(o.NoTaint, "no-taint")
	add(o.NoDispatchFloor, "no-floor")
	if s == "" {
		return "full"
	}
	return s
}
