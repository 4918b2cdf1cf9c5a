package workload

import (
	"sync"

	"repro/internal/isa"
)

// Static-program calibration. A profile's Mix prescribes the dynamic
// class fractions, but the realized branch fraction of a generated
// stream is an emergent property of the program roll: loop back edges
// re-execute whole block ranges, so dwell time compounds
// multiplicatively along loop chains and a single unlucky draw of
// (block length, trip count, back-edge target) can park the stream in
// a branch-poor or branch-rich corner of the CFG for most of a phase.
// Rather than accept whatever the first roll produces, the builder
// probes candidate realizations — deterministically salted re-rolls of
// the static seed — and keeps the one whose measured per-phase branch
// fractions stay closest to Mix.Branch. The salt depends only on the
// profile, never on the stream seed, so the calibrated program remains
// the benchmark's one true "binary" across seeds, threads and slots.

const (
	// calSalts bounds the search: every candidate is scored and the
	// best worst-phase deviation wins. Sixteen rolls put the winning
	// realization's residual deviation well under the degenerate-dwell
	// regime for every shipped profile.
	calSalts = 16

	// calPhases × calPerPhase is the probe length. Dwell luck is
	// per-phase (each phase anchors a different function), so the probe
	// scores each phase separately instead of one long prefix.
	calPhases   = 8
	calPerPhase = 4096

	// calSeed is the fixed probe seed: the chosen salt must be a
	// function of the profile alone, so the probe never uses the
	// caller's stream seed.
	calSeed = 0x5ca1ab1e
)

// pinnedSalts records the calibrated salt of every shipped profile,
// derived offline by cmd/streamcal: that tool scores candidates with
// the full interval timing model — per-phase branch fraction against
// Mix.Branch AND per-phase IPC against the stream's cross-phase median
// — a richer typicality criterion than the in-package probe below can
// compute (the workload package cannot depend on the simulator). The
// table is part of the v3 stream format: changing a salt changes that
// profile's byte stream and requires a StreamVersion bump.
var pinnedSalts = map[string]uint64{
	"ammp":          4,
	"applu":         0,
	"apsi":          8,
	"art":           0,
	"blackscholes":  14,
	"bodytrack":     5,
	"bzip2":         10,
	"canneal":       2,
	"crafty":        15,
	"dedup":         9,
	"eon":           9,
	"equake":        15,
	"facerec":       5,
	"fluidanimate":  13,
	"fma3d":         11,
	"galgel":        14,
	"gap":           12,
	"gcc":           2,
	"gzip":          15,
	"lucas":         9,
	"mcf":           1,
	"mesa":          0,
	"mgrid":         14,
	"parser":        14,
	"perlbmk":       1,
	"sixtrack":      14,
	"streamcluster": 12,
	"swaptions":     5,
	"swim":          10,
	"twolf":         5,
	"vips":          3,
	"vortex":        7,
	"vpr":           0,
	"wupwise":       2,
	"x264":          10,
}

// saltCache memoizes the calibrated salt per profile name: the search
// is deterministic, so the first caller computes what every later
// NewSlot reuses.
var saltCache sync.Map // map[string]uint64

// programSalt returns the calibrated static-program salt for the
// profile.
func programSalt(p *Profile) uint64 {
	if s, ok := pinnedSalts[p.Name]; ok {
		return s
	}
	if p.Mix.Branch <= 0 {
		return 0
	}
	if v, ok := saltCache.Load(p.Name); ok {
		return v.(uint64)
	}
	best, bestDev := uint64(0), -1.0
	for salt := uint64(0); salt < calSalts; salt++ {
		dev := probeWorstDev(p, salt)
		if bestDev < 0 || dev < bestDev {
			best, bestDev = salt, dev
		}
	}
	saltCache.Store(p.Name, best)
	return best
}

// probeWorstDev measures one candidate program realization and returns
// the worst per-phase relative deviation of the branch-class fraction
// from Mix.Branch. Skippable streams sample calPhases distinct phases
// (SkipTo to a chunk boundary is O(1)); streams with synchronization
// state probe sequential segments of the same total length instead.
func probeWorstDev(p *Profile, salt uint64) float64 {
	g := newSlotSalted(p, 0, 1, calSeed, 0, salt)
	var buf [256]isa.Inst
	frac := func(n int) (float64, bool) {
		var branches, total int
		for total < n {
			k := g.NextBatch(buf[:min(len(buf), n-total)])
			if k == 0 {
				break
			}
			for i := range buf[:k] {
				if buf[i].Class == isa.Branch {
					branches++
				}
			}
			total += k
		}
		if total == 0 {
			return 0, false
		}
		return float64(branches) / float64(total), true
	}
	skippable := g.Skippable()
	worst := 0.0
	for ph := uint64(0); ph < calPhases; ph++ {
		if skippable {
			if err := g.SkipTo(ph * phaseChunks * ChunkLen); err != nil {
				break
			}
		}
		f, ok := frac(calPerPhase)
		if !ok {
			break
		}
		dev := f/p.Mix.Branch - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// NewCandidate instantiates one candidate program realization for the
// offline calibration tool (cmd/streamcal): thread 0 of 1, slot 0,
// with an explicit salt in place of the pinned one. It exists only so
// the tool can score candidates with the timing model; streams of
// different salts are different binaries and must never be mixed in a
// simulation.
func NewCandidate(p *Profile, seed int64, salt uint64) *Generator {
	return newSlotSalted(p, 0, 1, seed, 0, salt)
}
