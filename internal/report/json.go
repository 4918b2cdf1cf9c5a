package report

import (
	"encoding/json"

	"repro/internal/multicore"
)

// Summary is the machine-readable form of a run result. Field names are
// stable API: the simd service, cmd/intervalsim -json and downstream
// tooling all parse this shape.
//
// The encoding is deliberately deterministic for a given simulated
// outcome: host-side measurements (wall-clock, MIPS) are excluded, so two
// runs of the same scenario — or a run and its cache hit — encode to
// byte-identical JSON.
type Summary struct {
	Model string `json:"model"`
	// Engine and Tier identify which engine answered and at what
	// fidelity (simrun's tier lattice). Both are absent on full-engine
	// results: an untagged payload is always a definitive answer, so
	// payloads written before tiers existed read back correctly.
	Engine       string        `json:"engine,omitempty"`
	Tier         string        `json:"tier,omitempty"`
	Cycles       int64         `json:"cycles"`
	Instructions uint64        `json:"instructions"`
	TimedOut     bool          `json:"timed_out,omitempty"`
	Interrupted  bool          `json:"interrupted,omitempty"`
	Cores        []CoreSummary `json:"cores"`
	Mem          *MemSummary   `json:"mem,omitempty"`
}

// CoreSummary is one core's outcome.
type CoreSummary struct {
	Core    int     `json:"core"`
	Retired uint64  `json:"retired"`
	Finish  int64   `json:"finish"`
	IPC     float64 `json:"ipc"`
}

// MemSummary reports the shared memory hierarchy; present only when the
// run kept its cores (simrun.KeepCores / Spec.Report).
type MemSummary struct {
	Cores         []MemCoreSummary `json:"cores"`
	L2            *L2Summary       `json:"l2,omitempty"`
	Fabric        FabricSummary    `json:"fabric"`
	DRAM          DRAMSummary      `json:"dram"`
	Coherence     CoherenceSummary `json:"coherence"`
	Prefetches    uint64           `json:"prefetches,omitempty"`
	PrefetchFills uint64           `json:"prefetch_fills,omitempty"`
}

// MemCoreSummary is one core's private-cache behaviour.
type MemCoreSummary struct {
	Core        int     `json:"core"`
	L1IMissRate float64 `json:"l1i_miss_rate"`
	L1DMissRate float64 `json:"l1d_miss_rate"`
}

// L2Summary is the shared L2's behaviour (absent in no-L2 configurations).
type L2Summary struct {
	MissRate float64 `json:"miss_rate"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
}

// FabricSummary is the on-chip interconnect's behaviour.
type FabricSummary struct {
	Transactions uint64  `json:"transactions"`
	StallCycles  int64   `json:"stall_cycles"`
	Utilization  float64 `json:"utilization"`
}

// DRAMSummary is the main memory's behaviour.
type DRAMSummary struct {
	Requests    uint64  `json:"requests"`
	StallCycles int64   `json:"stall_cycles"`
	Utilization float64 `json:"utilization"`
}

// CoherenceSummary is the protocol traffic.
type CoherenceSummary struct {
	Interventions uint64 `json:"interventions"`
	Upgrades      uint64 `json:"upgrades"`
	Invalidations uint64 `json:"invalidations"`
}

// Summarize extracts the machine-readable summary from a run result.
func Summarize(res multicore.Result) Summary {
	s := Summary{
		Model:        res.Model.String(),
		Cycles:       res.Cycles,
		Instructions: res.TotalRetired,
		TimedOut:     res.TimedOut,
		Interrupted:  res.Interrupted,
		Cores:        make([]CoreSummary, len(res.Cores)),
	}
	for i, c := range res.Cores {
		s.Cores[i] = CoreSummary{Core: i, Retired: c.Retired, Finish: c.Finish, IPC: c.IPC}
	}
	if res.Mem == nil {
		return s
	}
	h := res.Mem
	mem := &MemSummary{
		Cores:         make([]MemCoreSummary, len(res.Cores)),
		Prefetches:    h.Stats().Prefetches,
		PrefetchFills: h.Stats().PrefetchFills,
	}
	for i := range res.Cores {
		mem.Cores[i] = MemCoreSummary{
			Core:        i,
			L1IMissRate: h.L1I(i).MissRate(),
			L1DMissRate: h.L1D(i).MissRate(),
		}
	}
	if l2 := h.L2(); l2 != nil {
		mem.L2 = &L2Summary{MissRate: l2.MissRate(), Hits: l2.Hits, Misses: l2.Misses}
	}
	fab := h.Fabric()
	mem.Fabric = FabricSummary{
		Transactions: fab.Transactions,
		StallCycles:  fab.StallTotal,
		Utilization:  fab.Utilization(res.Cycles),
	}
	d := h.DRAM().Stats()
	mem.DRAM = DRAMSummary{
		Requests:    d.Requests,
		StallCycles: d.StallTotal,
		Utilization: h.DRAM().Utilization(res.Cycles),
	}
	coh := h.Coherence().Stats()
	mem.Coherence = CoherenceSummary{
		Interventions: coh.Interventions,
		Upgrades:      coh.Upgrades,
		Invalidations: coh.Invalidations,
	}
	s.Mem = mem
	return s
}

// JSON encodes the result summary as compact JSON with stable field names
// and deterministic content (see Summary).
func JSON(res multicore.Result) ([]byte, error) {
	return json.Marshal(Summarize(res))
}

// JSONTiered is JSON with the answering engine and fidelity tier tagged
// into the summary. Estimator-tier answers are encoded this way; full
// answers keep the untagged JSON form, so a payload's (absent) tier tag
// is also its upgrade-eligibility marker.
func JSONTiered(res multicore.Result, engine, tier string) ([]byte, error) {
	s := Summarize(res)
	s.Engine, s.Tier = engine, tier
	return json.Marshal(s)
}

// PayloadTier recovers the tier tag of an encoded summary: the tagged
// tier for estimator payloads, "" for untagged (definitive) ones. It is
// the simrun cache's DecodeTier hook, so a restarted service never
// serves a persisted estimate to a full-fidelity request.
func PayloadTier(payload []byte) string {
	var s struct {
		Tier string `json:"tier"`
	}
	if json.Unmarshal(payload, &s) != nil {
		return ""
	}
	return s.Tier
}
