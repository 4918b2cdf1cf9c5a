package experiments

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// Extension experiments: artifacts beyond the paper's evaluation that the
// reproduction makes possible — scaling past the paper's 8-core host
// limit, the per-refinement model ablation (docs/architecture.md, "Core
// models"), and the
// system-level substrate sweeps (fabric, DRAM). cmd/experiments exposes
// them alongside the paper figures.

// ablationVariants lists the model-refinement ablations in the order
// docs/architecture.md, "Core models", names them.
var ablationVariants = []core.Options{
	{},
	{NoROBFillHiding: true},
	{FlushOldWindow: true},
	{NoOverlapScan: true},
	{NoTaint: true},
	{NoDispatchFloor: true},
}

// ablationProfiles is the mixed profile set the model ablation sweeps.
var ablationProfiles = []string{"gcc", "mcf", "swim", "vpr"}

// AblationModel regenerates the per-refinement accuracy table: for every
// ablation variant, the IPC error against the detailed baseline per
// profile and on average.
func (o Opts) AblationModel() Table {
	t := Table{
		ID:      "model-ablation",
		Title:   "per-refinement accuracy ablation (docs/architecture.md, Core models): interval-vs-detailed IPC error",
		Columns: append(append([]string{"variant"}, ablationProfiles...), "avg"),
	}
	var scs []*simrun.Scenario
	for _, name := range ablationProfiles {
		scs = append(scs, o.specScenario(workload.SPECByName(name), "detailed", 1, memhier.Perfect{}, ""))
	}
	for _, v := range ablationVariants {
		for _, name := range ablationProfiles {
			sp := o.specSpec(workload.SPECByName(name), "interval", 1, memhier.Perfect{}, "")
			sp.Ablation = &v
			scs = append(scs, scenario(sp))
		}
	}
	results := o.runAll(scs)

	detailed := make(map[string]float64, len(ablationProfiles))
	for i, name := range ablationProfiles {
		detailed[name] = results[i].Cores[0].IPC
	}
	var fullAvg float64
	idx := len(ablationProfiles)
	for _, v := range ablationVariants {
		row := []string{v.Name()}
		var sum float64
		for _, name := range ablationProfiles {
			ipc := results[idx].Cores[0].IPC
			idx++
			e := math.Abs(ipc-detailed[name]) / detailed[name]
			sum += e
			row = append(row, pct(e))
		}
		avg := sum / float64(len(ablationProfiles))
		if v == (core.Options{}) {
			fullAvg = avg
		}
		row = append(row, pct(avg))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("full model %s average; every disabled refinement should not beat it materially", pct(fullAvg)),
		"no-overlap (first-order model) degrades most: the paper's second-order-effects claim")
	return t
}

// Scale16 extends the Figure 7 scaling experiment past the paper's 8-core
// limit ("physical memory constraints limited us from running larger
// configurations") to 16 and 32 cores, on both the snoop bus and a ring
// NoC. Interval simulation's whole pitch is making exactly this kind of
// larger-system study cheap.
func (o Opts) Scale16() Table {
	t := Table{
		ID:      "scale16",
		Title:   "beyond the paper: multi-threaded scaling to 16/32 cores, bus vs ring fabric",
		Columns: []string{"bench", "fabric", "1", "2", "4", "8", "16", "32"},
	}
	counts := []int{1, 2, 4, 8, 16, 32}
	fabrics := []string{"bus", "ring"}
	var scs []*simrun.Scenario
	for _, name := range []string{"blackscholes", "streamcluster"} {
		p := workload.PARSECByName(name)
		for _, fabric := range fabrics {
			for _, n := range counts {
				m := config.Default(n)
				m.Mem.Interconnect = fabric
				scs = append(scs, o.parsecScenario(p, "interval", m))
			}
		}
	}
	results := o.runAll(scs)

	i := 0
	for _, name := range []string{"blackscholes", "streamcluster"} {
		var base int64
		for _, fabric := range fabrics {
			row := []string{name, fabric}
			for _, n := range counts {
				res := results[i]
				i++
				if fabric == "bus" && n == 1 {
					base = res.Cycles
				}
				row = append(row, f3(float64(res.Cycles)/float64(base)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"normalized execution time vs single-core bus run (smaller is better)",
		"blackscholes (embarrassingly parallel) keeps scaling to 32 cores; streamcluster",
		"plateaus at 8-16 from barrier synchronization — the fabric barely matters for",
		"these compute-bound threads (see the 'fabric' table for a bandwidth-bound mix)")
	return t
}

// Fabric regenerates the interconnect comparison: 8-core multi-program
// cycles and fabric statistics for bus, mesh and ring.
func (o Opts) Fabric() Table {
	t := Table{
		ID:      "fabric",
		Title:   "on-chip fabric comparison: 8-core multi-program mix",
		Columns: []string{"fabric", "cycles", "STP", "fabric-stall", "busy"},
	}
	mix := []string{"swim", "mcf", "gcc", "art"}
	const cores = 8
	fabrics := config.Names("Mem.Interconnect")
	var scs []*simrun.Scenario
	for _, fabric := range fabrics {
		scs = append(scs, scenario(simrun.Spec{Label: fabric + " mix", Mix: mix, Cores: cores, Fabric: fabric,
			Insts: o.Insts, Warmup: o.Warmup, Seed: &o.Seed, Report: true}))
	}
	for i, r := range o.runAll(scs) {
		stp := 0.0
		for _, c := range r.Cores {
			stp += c.IPC
		}
		fab := r.Mem.Fabric()
		t.Rows = append(t.Rows, []string{
			fabrics[i],
			fmt.Sprintf("%d", r.Cycles),
			f2(stp),
			fmt.Sprintf("%d", fab.StallTotal),
			pct(fab.Utilization(r.Cycles)),
		})
	}
	t.Notes = append(t.Notes,
		"the bus serializes every L1-miss transaction; the NoCs trade hop latency for parallel links")
	return t
}

// DRAMStudy regenerates the main-memory comparison: fixed-latency versus
// banked open-page DRAM per benchmark, with the banked model's row-buffer
// hit rate.
func (o Opts) DRAMStudy() Table {
	t := Table{
		ID:      "dram",
		Title:   "main memory: fixed-latency vs banked row-buffer DRAM (interval model)",
		Columns: []string{"bench", "fixed IPC", "banked IPC", "gain", "row-hit"},
	}
	names := []string{"swim", "mgrid", "gcc", "mcf"}
	var scs []*simrun.Scenario
	for _, name := range names {
		for _, kind := range config.Names("Mem.DRAMKind") {
			scs = append(scs, scenario(simrun.Spec{Bench: name, DRAM: kind,
				Insts: o.Insts, Warmup: o.Warmup, Seed: &o.Seed, Report: true}))
		}
	}
	results := o.runAll(scs)
	for i, name := range names {
		fixed := results[2*i].Cores[0].IPC
		banked := results[2*i+1]
		rowHit := banked.Mem.DRAM().RowHitRate()
		t.Rows = append(t.Rows, []string{name, f3(fixed), f3(banked.Cores[0].IPC),
			f2(banked.Cores[0].IPC / fixed), pct(rowHit)})
	}
	t.Notes = append(t.Notes,
		"streaming profiles ride the row buffer (gain > 1); pointer chases pay the conflict path (gain < 1)")
	return t
}

// Predictors regenerates the branch-predictor comparison: misprediction
// rate and interval-model IPC per direction predictor on branchy profiles.
func (o Opts) Predictors() Table {
	t := Table{
		ID:      "predictors",
		Title:   "direction predictors: misprediction rate / interval IPC",
		Columns: []string{"predictor", "gcc misp", "gcc IPC", "vpr misp", "vpr IPC", "crafty misp", "crafty IPC"},
	}
	benches := []string{"gcc", "vpr", "crafty"}
	kinds := []string{"bimodal", "gshare", "local", "tournament", "tage"}
	var scs []*simrun.Scenario
	for _, kind := range kinds {
		for _, name := range benches {
			sp := o.specSpec(workload.SPECByName(name), "interval", 1, memhier.Perfect{}, kind)
			sp.Report = true
			scs = append(scs, scenario(sp))
		}
	}
	results := o.runAll(scs)
	i := 0
	for _, kind := range kinds {
		row := []string{kind}
		for range benches {
			res := results[i]
			i++
			row = append(row, mispOf(res), f3(res.Cores[0].IPC))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Table 1's local predictor is the baseline; bimodal trails clearly on every profile",
		"the synthetic branch sites are local-history-correlated by construction, so the",
		"history-based predictors (local, gshare, tournament, TAGE) land within a few points")
	return t
}

// mispOf extracts the branch misprediction ratio from a kept-cores run.
func mispOf(res multicore.Result) string {
	ic, ok := res.Sim[0].(*core.Core)
	if !ok {
		return "-"
	}
	return pct(ic.MispredictRate())
}

// Extensions returns the beyond-the-paper tables in order.
func (o Opts) Extensions() []Table {
	return []Table{o.AblationModel(), o.Predictors(), o.Fabric(), o.DRAMStudy(), o.Scale16()}
}
