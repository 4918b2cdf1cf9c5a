package workload

// SPEC CPU2000-like single-threaded profiles. Parameters are chosen
// qualitatively from the benchmarks' published characterizations (memory
// footprints, branch behaviour, ILP); see docs/architecture.md, "Functional
// layer: workload → trace", for the substitution argument. What matters for the reproduction is that the suite spans the
// behaviour space the paper's figures span: compute-bound high-IPC codes,
// branch-limited codes, L2-resident codes and DRAM-bound codes.
//
// Region probabilities are calibrated so L1-D miss rates land in realistic
// ranges (a few percent for typical codes, tens of percent for the
// memory-bound outliers mcf/art), since the hit rate of a random-access
// region is roughly cache size over region size.

// Working-set shorthand sizes.
const (
	wsL1   = 16 << 10  // fits the 32KB L1
	wsL2   = 512 << 10 // fits the 4MB L2, misses L1
	wsBig  = 16 << 20  // exceeds the L2
	wsHuge = 64 << 20
)

// intMix returns a typical integer-code mix with the given branch fraction.
func intMix(branch float64) Mix {
	return Mix{
		IntALU: 0.50, IntMul: 0.01, IntDiv: 0.002, FP: 0.01,
		Load: 0.26, Store: 0.11, Branch: branch, Call: 0.08,
	}
}

// fpMix returns a typical floating-point-code mix.
func fpMix(branch float64) Mix {
	return Mix{
		IntALU: 0.28, IntMul: 0.02, IntDiv: 0.004, FP: 0.32,
		Load: 0.28, Store: 0.09, Branch: branch, Call: 0.03,
	}
}

// specBase fills the control-flow defaults shared by the SPEC-like
// profiles.
func specBase(p Profile) Profile {
	if p.Funcs == 0 {
		p.Funcs = 16
	}
	if p.BlocksPerFunc == 0 {
		p.BlocksPerFunc = 20
	}
	if p.LoopTripMean == 0 {
		p.LoopTripMean = 12
	}
	if p.BiasedProb == 0 {
		p.BiasedProb = 0.93
	}
	if p.RandomProb == 0 {
		p.RandomProb = 0.45
	}
	if p.SerializeEvery == 0 {
		p.SerializeEvery = 200000
	}
	if p.ChainFrac == 0 {
		p.ChainFrac = 0.06
	}
	return p
}

// SPEC returns the 26 SPEC CPU2000-like profiles in the order used by the
// paper's figures (12 integer, then 14 floating point).
func SPEC() []Profile {
	ps := []Profile{
		{
			Name: "bzip2", Mix: intMix(0.12), DepDistMean: 4,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.94}, {Bytes: wsL2, Prob: 0.055}, {Bytes: wsBig, Prob: 0.005}},
			LoopFrac: 0.55, BiasedFrac: 0.35, LoopTripMean: 16,
		},
		{
			Name: "crafty", Mix: intMix(0.13), DepDistMean: 5,
			Regions: []Region{{Bytes: wsL1, Prob: 0.97}, {Bytes: wsL2, Prob: 0.03}},
			Funcs:   40, BlocksPerFunc: 28, // large code footprint
			LoopFrac: 0.4, BiasedFrac: 0.48,
		},
		{
			Name: "eon", Mix: Mix{IntALU: 0.40, IntMul: 0.02, FP: 0.18, Load: 0.26, Store: 0.10, Branch: 0.10, Call: 0.12},
			DepDistMean: 5,
			Regions:     []Region{{Bytes: wsL1, Prob: 0.975}, {Bytes: wsL2, Prob: 0.025}},
			LoopFrac:    0.5, BiasedFrac: 0.42,
		},
		{
			Name: "gap", Mix: intMix(0.11), DepDistMean: 4,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.94}, {Bytes: wsL2, Prob: 0.05}, {Bytes: wsBig, Prob: 0.01}},
			LoopFrac: 0.55, BiasedFrac: 0.37,
		},
		{
			Name: "gcc", Mix: intMix(0.15), DepDistMean: 3.5,
			Regions: []Region{{Bytes: wsL1, Prob: 0.92}, {Bytes: 256 << 10, Prob: 0.07}, {Bytes: wsBig, Prob: 0.01}},
			Funcs:   48, BlocksPerFunc: 28, // notoriously large code
			LoopFrac: 0.32, BiasedFrac: 0.46, SerializeEvery: 100000,
		},
		{
			Name: "gzip", Mix: intMix(0.11), DepDistMean: 4,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.95}, {Bytes: wsL2, Prob: 0.05}},
			LoopFrac: 0.6, BiasedFrac: 0.32, LoopTripMean: 24,
		},
		{
			Name: "mcf", Mix: intMix(0.12), DepDistMean: 2.5,
			Regions:      []Region{{Bytes: wsL1, Prob: 0.72}, {Bytes: wsHuge, Prob: 0.28}},
			PointerChase: 0.6, // dependent pointer walks: little MLP
			LoopFrac:     0.4, BiasedFrac: 0.35,
		},
		{
			Name: "parser", Mix: intMix(0.14), DepDistMean: 3,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.92}, {Bytes: wsL2, Prob: 0.07}, {Bytes: wsBig, Prob: 0.01}},
			LoopFrac: 0.35, BiasedFrac: 0.4, PointerChase: 0.15,
		},
		{
			Name: "perlbmk", Mix: intMix(0.14), DepDistMean: 4,
			Regions: []Region{{Bytes: wsL1, Prob: 0.94}, {Bytes: wsL2, Prob: 0.06}},
			Funcs:   40, BlocksPerFunc: 24,
			LoopFrac: 0.4, BiasedFrac: 0.48,
		},
		{
			Name: "twolf", Mix: intMix(0.13), DepDistMean: 3,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.90}, {Bytes: wsL2, Prob: 0.095}, {Bytes: wsBig, Prob: 0.005}},
			LoopFrac: 0.35, BiasedFrac: 0.38, RandomProb: 0.45,
		},
		{
			Name: "vortex", Mix: intMix(0.13), DepDistMean: 4.5,
			Regions: []Region{{Bytes: wsL1, Prob: 0.93}, {Bytes: wsL2, Prob: 0.06}, {Bytes: wsBig, Prob: 0.01}},
			Funcs:   40, BlocksPerFunc: 24,
			LoopFrac: 0.45, BiasedFrac: 0.46,
		},
		{
			Name: "vpr", Mix: intMix(0.14), DepDistMean: 3,
			Regions: []Region{{Bytes: wsL1, Prob: 0.93}, {Bytes: wsL2, Prob: 0.07}},
			// Data-dependent branches: the paper reports vpr among the
			// largest branch-penalty errors.
			LoopFrac: 0.28, BiasedFrac: 0.3, RandomProb: 0.5,
		},

		// Floating point.
		{
			Name: "ammp", Mix: fpMix(0.06), DepDistMean: 6, ChainFrac: 0.125,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.90}, {Bytes: wsL2, Prob: 0.08}, {Bytes: wsBig, Prob: 0.02}},
			LoopFrac: 0.6, BiasedFrac: 0.3, LoopTripMean: 24,
		},
		{
			Name: "applu", Mix: fpMix(0.04), DepDistMean: 6, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.60}, {Bytes: wsL2, Prob: 0.25, Stride: 8}, {Bytes: wsBig, Prob: 0.15, Stride: 8}},
			LoopFrac: 0.75, BiasedFrac: 0.15, LoopTripMean: 40,
		},
		{
			Name: "apsi", Mix: fpMix(0.05), DepDistMean: 6, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.90}, {Bytes: wsL2, Prob: 0.07}, {Bytes: wsBig, Prob: 0.03, Stride: 8}},
			LoopFrac: 0.65, BiasedFrac: 0.25, LoopTripMean: 24,
		},
		{
			Name: "art", Mix: fpMix(0.06), DepDistMean: 6, ChainFrac: 0.125,
			// Working set just beyond the 4MB L2: thrashes it. The F1
			// neuron walks are partially dependent chains.
			Regions:      []Region{{Bytes: wsL1, Prob: 0.75}, {Bytes: 6 << 20, Prob: 0.25}},
			PointerChase: 0.25,
			LoopFrac:     0.6, BiasedFrac: 0.25, LoopTripMean: 48,
		},
		{
			Name: "equake", Mix: fpMix(0.05), DepDistMean: 6, ChainFrac: 0.125,
			Regions:      []Region{{Bytes: wsL1, Prob: 0.80}, {Bytes: wsBig, Prob: 0.20, Stride: 8}},
			PointerChase: 0.2,
			LoopFrac:     0.65, BiasedFrac: 0.25, LoopTripMean: 32,
		},
		{
			Name: "facerec", Mix: fpMix(0.04), DepDistMean: 6, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.85}, {Bytes: wsL2, Prob: 0.10}, {Bytes: wsBig, Prob: 0.05, Stride: 8}},
			LoopFrac: 0.7, BiasedFrac: 0.2, LoopTripMean: 36,
		},
		{
			Name: "fma3d", Mix: fpMix(0.05), DepDistMean: 6, ChainFrac: 0.125,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.88}, {Bytes: wsL2, Prob: 0.09}, {Bytes: wsBig, Prob: 0.03}},
			LoopFrac: 0.6, BiasedFrac: 0.3, LoopTripMean: 20,
		},
		{
			Name: "galgel", Mix: fpMix(0.05), DepDistMean: 8, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.93}, {Bytes: wsL2, Prob: 0.07}},
			LoopFrac: 0.75, BiasedFrac: 0.2, LoopTripMean: 48,
		},
		{
			Name: "lucas", Mix: fpMix(0.03), DepDistMean: 6, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.75}, {Bytes: wsHuge, Prob: 0.25, Stride: 8}},
			LoopFrac: 0.8, BiasedFrac: 0.15, LoopTripMean: 64,
		},
		{
			Name: "mesa", Mix: fpMix(0.07), DepDistMean: 6, ChainFrac: 0.08,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.985}, {Bytes: wsL2, Prob: 0.015}},
			LoopFrac: 0.55, BiasedFrac: 0.38, LoopTripMean: 24,
		},
		{
			Name: "mgrid", Mix: fpMix(0.03), DepDistMean: 6, ChainFrac: 0.08,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.55}, {Bytes: wsL2, Prob: 0.35, Stride: 8}, {Bytes: wsBig, Prob: 0.10, Stride: 8}},
			LoopFrac: 0.85, BiasedFrac: 0.1, LoopTripMean: 64,
		},
		{
			Name: "sixtrack", Mix: fpMix(0.05), DepDistMean: 7, ChainFrac: 0.07,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.98}, {Bytes: wsL2, Prob: 0.02}},
			LoopFrac: 0.7, BiasedFrac: 0.26, LoopTripMean: 32,
		},
		{
			Name: "swim", Mix: fpMix(0.02), DepDistMean: 7, ChainFrac: 0.08,
			// Streaming through a huge array: bandwidth-bound.
			Regions:  []Region{{Bytes: wsL1, Prob: 0.60}, {Bytes: wsHuge, Prob: 0.40, Stride: 8}},
			LoopFrac: 0.9, BiasedFrac: 0.08, LoopTripMean: 96,
		},
		{
			Name: "wupwise", Mix: fpMix(0.04), DepDistMean: 6, ChainFrac: 0.10,
			Regions:  []Region{{Bytes: wsL1, Prob: 0.90}, {Bytes: wsL2, Prob: 0.07}, {Bytes: wsBig, Prob: 0.03, Stride: 8}},
			LoopFrac: 0.7, BiasedFrac: 0.25, LoopTripMean: 40,
		},
	}
	for i := range ps {
		ps[i] = specBase(ps[i])
	}
	return ps
}

// SPECByName returns the named profile, or nil.
func SPECByName(name string) *Profile {
	for _, p := range SPEC() {
		if p.Name == name {
			q := p
			return &q
		}
	}
	return nil
}
