package sampling

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/trace"
)

// SimPoint-style phase sampling (Sherwood et al., the third sampling
// family the paper's related work cites): slice the dynamic stream into
// fixed-length intervals, describe each by a code-signature vector,
// cluster the vectors with k-means, and time only one representative
// interval per cluster. Phase behaviour makes most intervals redundant;
// the weighted representatives predict whole-program performance.

// sigCodeBuckets is the hashed code-signature width (the stand-in for the
// basic-block vector: a histogram over hashed code lines).
const sigCodeBuckets = 32

// sigDim is the full signature dimensionality: hashed code histogram +
// instruction-class mix + branch taken rate + memory footprint.
const sigDim = sigCodeBuckets + isa.NumClasses + 2

// SimPointConfig sizes the phase analysis.
type SimPointConfig struct {
	// IntervalLen is the interval length in instructions.
	IntervalLen int
	// K is the number of phases (clusters).
	K int
	// Seed makes the k-means initialization deterministic.
	Seed int64
	// MaxIter bounds the Lloyd iterations (0 selects 50).
	MaxIter int
}

// SimPoints is the result of phase classification.
type SimPoints struct {
	// IntervalLen echoes the configuration.
	IntervalLen int
	// K is the number of clusters actually used (≤ configured K when
	// there are fewer intervals).
	K int
	// Assignments maps each interval to its cluster.
	Assignments []int
	// Weights is each cluster's fraction of intervals (sums to 1).
	Weights []float64
	// Representatives is, per cluster, the index of the interval
	// closest to the cluster centroid — the simulation point.
	Representatives []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Intervals returns the number of classified intervals.
func (sp *SimPoints) Intervals() int { return len(sp.Assignments) }

// signature computes the feature vector of one interval.
func signature(insts []isa.Inst) [sigDim]float64 {
	var sig [sigDim]float64
	if len(insts) == 0 {
		return sig
	}
	lines := make(map[uint64]struct{}, 64)
	var branches, taken float64
	for i := range insts {
		in := &insts[i]
		// Hashed code histogram (BBV stand-in).
		h := (in.PC >> 6) * 0x9e3779b97f4a7c15
		sig[h>>58&(sigCodeBuckets-1)]++
		sig[sigCodeBuckets+int(in.Class)]++
		if in.Class.IsBranch() {
			branches++
			if in.Taken {
				taken++
			}
		}
		if in.Class.IsMem() {
			lines[in.Addr>>6] = struct{}{}
		}
	}
	n := float64(len(insts))
	for i := 0; i < sigCodeBuckets+isa.NumClasses; i++ {
		sig[i] /= n
	}
	if branches > 0 {
		sig[sigCodeBuckets+isa.NumClasses] = taken / branches
	}
	sig[sigCodeBuckets+isa.NumClasses+1] = float64(len(lines)) / n
	return sig
}

func dist2(a, b *[sigDim]float64) float64 {
	var d float64
	for i := range a {
		t := a[i] - b[i]
		d += t * t
	}
	return d
}

// Analyze slices insts into intervals, computes signatures and clusters
// them with seeded k-means++ (deterministic for a given seed).
func Analyze(insts []isa.Inst, cfg SimPointConfig) (*SimPoints, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(insts) / cfg.IntervalLen
	if n == 0 {
		return nil, fmt.Errorf("simpoint: %d instructions is less than one interval of %d",
			len(insts), cfg.IntervalLen)
	}
	sigs := make([][sigDim]float64, n)
	for i := 0; i < n; i++ {
		sigs[i] = signature(insts[i*cfg.IntervalLen : (i+1)*cfg.IntervalLen])
	}
	return analyzeSigs(sigs, cfg), nil
}

// AnalyzeStream classifies the first total instructions of a stream
// without materializing them: it buffers one interval at a time, folds
// it into a signature and discards it, so the peak footprint is one
// interval rather than the whole analysis window (the v2 engine
// recorded a 1M-instruction prefix to call Analyze; stream format v3's
// skip-ahead makes the recording pointless). For identical instructions
// the result is bit-identical to Analyze.
func AnalyzeStream(src trace.Stream, total int, cfg SimPointConfig) (*SimPoints, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := total / cfg.IntervalLen
	if n == 0 {
		return nil, fmt.Errorf("simpoint: %d instructions is less than one interval of %d",
			total, cfg.IntervalLen)
	}
	buf := make([]isa.Inst, cfg.IntervalLen)
	sigs := make([][sigDim]float64, 0, n)
	for i := 0; i < n; i++ {
		for got := 0; got < len(buf); {
			k := src.NextBatch(buf[got:])
			if k == 0 {
				return nil, fmt.Errorf("simpoint: stream ended at instruction %d of %d",
					i*cfg.IntervalLen+got, n*cfg.IntervalLen)
			}
			got += k
		}
		sigs = append(sigs, signature(buf))
	}
	return analyzeSigs(sigs, cfg), nil
}

func (cfg SimPointConfig) validate() error {
	if cfg.IntervalLen <= 0 {
		return fmt.Errorf("simpoint: interval length %d", cfg.IntervalLen)
	}
	if cfg.K <= 0 {
		return fmt.Errorf("simpoint: k = %d", cfg.K)
	}
	return nil
}

// analyzeSigs clusters precomputed interval signatures with seeded
// k-means++ — the shared back half of Analyze and AnalyzeStream.
func analyzeSigs(sigs [][sigDim]float64, cfg SimPointConfig) *SimPoints {
	n := len(sigs)
	k := cfg.K
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centroids := kmeansppInit(sigs, k, rng)

	assign := make([]int, n)
	sp := &SimPoints{IntervalLen: cfg.IntervalLen, K: k}
	for iter := 0; iter < maxIter; iter++ {
		sp.Iterations = iter + 1
		changed := false
		for i := range sigs {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := dist2(&sigs[i], &centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; reseed empty clusters deterministically
		// to the point farthest from its centroid.
		counts := make([]int, k)
		var sums = make([][sigDim]float64, k)
		for i, c := range assign {
			counts[c]++
			for d := 0; d < sigDim; d++ {
				sums[c][d] += sigs[i][d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i := range sigs {
					if d := dist2(&sigs[i], &centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = sigs[far]
				continue
			}
			for d := 0; d < sigDim; d++ {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}

	sp.Assignments = assign
	sp.Weights = make([]float64, k)
	sp.Representatives = make([]int, k)
	repD := make([]float64, k)
	for c := range repD {
		repD[c] = math.Inf(1)
		sp.Representatives[c] = -1
	}
	for i, c := range assign {
		sp.Weights[c] += 1 / float64(n)
		if d := dist2(&sigs[i], &centroids[c]); d < repD[c] {
			repD[c] = d
			sp.Representatives[c] = i
		}
	}
	// Drop empty clusters (possible when k was reduced by duplicates).
	out := &SimPoints{IntervalLen: cfg.IntervalLen, Assignments: assign, Iterations: sp.Iterations}
	remap := make([]int, k)
	for c := 0; c < k; c++ {
		if sp.Representatives[c] < 0 {
			remap[c] = -1
			continue
		}
		remap[c] = out.K
		out.K++
		out.Weights = append(out.Weights, sp.Weights[c])
		out.Representatives = append(out.Representatives, sp.Representatives[c])
	}
	for i := range out.Assignments {
		out.Assignments[i] = remap[out.Assignments[i]]
	}
	return out
}

// kmeansppInit seeds k centroids with the k-means++ rule.
func kmeansppInit(sigs [][sigDim]float64, k int, rng *rand.Rand) [][sigDim]float64 {
	centroids := make([][sigDim]float64, 0, k)
	centroids = append(centroids, sigs[rng.Intn(len(sigs))])
	d2 := make([]float64, len(sigs))
	for len(centroids) < k {
		var total float64
		for i := range sigs {
			best := math.Inf(1)
			for c := range centroids {
				if d := dist2(&sigs[i], &centroids[c]); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, sigs[rng.Intn(len(sigs))])
			continue
		}
		u := rng.Float64() * total
		pick := 0
		for i, d := range d2 {
			u -= d
			if u <= 0 {
				pick = i
				break
			}
		}
		centroids = append(centroids, sigs[pick])
	}
	return centroids
}

// weightedIPC combines the representatives' timed runs by cluster weight
// into a whole-program IPC — the shared back half of EstimateIPC and
// EstimateIPCSkip. run times representative c through the multicore driver.
func weightedIPC(sp *SimPoints, machine config.Machine, run func(c int) (multicore.Result, error)) (float64, error) {
	if machine.Cores != 1 {
		return 0, fmt.Errorf("simpoint: single-core only (got %d cores)", machine.Cores)
	}
	var cpi float64
	for c := 0; c < sp.K; c++ {
		res, err := run(c)
		if err != nil {
			return 0, err
		}
		if res.TotalRetired == 0 {
			continue
		}
		cpi += sp.Weights[c] * float64(res.Cycles) / float64(res.TotalRetired)
	}
	if cpi == 0 {
		return 0, fmt.Errorf("simpoint: no instructions timed")
	}
	return 1 / cpi, nil
}

// EstimateIPC times one representative interval per phase (with full
// functional warming up to the interval, as checkpoint-based SimPoint
// deployments do) and combines them by cluster weight into a
// whole-program IPC estimate. Each representative is one multicore.Run:
// the prefix is its warm-up stream, the interval its measured stream.
func EstimateIPC(insts []isa.Inst, sp *SimPoints, machine config.Machine, model multicore.Model) (float64, error) {
	return weightedIPC(sp, machine, func(c int) (multicore.Result, error) {
		start := sp.Representatives[c] * sp.IntervalLen
		end := min(start+sp.IntervalLen, len(insts))
		return multicore.Run(multicore.RunConfig{
			Machine:     machine,
			Model:       model,
			WarmupInsts: start,
			Warmup:      []trace.Stream{trace.NewSliceStream(insts[:start])},
		}, []trace.Stream{trace.NewSliceStream(insts[start:end])}), nil
	})
}

// SkipStream is a replayable stream that can jump to an absolute
// instruction index in O(1) — the contract workload generators satisfy
// for skippable profiles (stream format v3) and the one EstimateIPCSkip
// is built on.
type SkipStream interface {
	trace.Stream
	SkipTo(n uint64) error
}

// EstimateIPCSkip times one representative interval per phase by
// jumping straight to it: open yields a fresh stream per
// representative, SkipTo lands warm instructions before the interval,
// and only those warm instructions (not the whole prefix, as
// EstimateIPC replays) pass through the caches and predictor before
// measurement. warm is the functional-warming length in instructions;
// longer warming converges on EstimateIPC's full-prefix warming at a
// cost independent of where the representative sits in the stream. Each
// representative is one multicore.Run whose warm-up consumes the head of
// the stream it then measures.
func EstimateIPCSkip(open func() SkipStream, sp *SimPoints, warm int, machine config.Machine, model multicore.Model) (float64, error) {
	return weightedIPC(sp, machine, func(c int) (multicore.Result, error) {
		start := sp.Representatives[c] * sp.IntervalLen
		wStart := max(start-max(warm, 0), 0)
		src := open()
		if err := src.SkipTo(uint64(wStart)); err != nil {
			return multicore.Result{}, fmt.Errorf("simpoint: skipping to %d: %w", wStart, err)
		}
		return multicore.Run(multicore.RunConfig{
			Machine:     machine,
			Model:       model,
			WarmupInsts: start - wStart,
		}, []trace.Stream{trace.NewLimit(src, start-wStart+sp.IntervalLen)}), nil
	})
}
