package workload

import "math"

// Tabulated geometric sampling (stream format v3). The v2 generator
// drew geometric variates by inverse transform — floor(log(u)/log(q))
// — which put a math.Log call on the hot path of nearly every
// synthesized instruction (dependence distances) and on every block
// construction (block lengths, loop trips). v3 replaces the transform
// with a Walker/Vose alias table: one uniform draw, one table probe,
// one comparison, no transcendental math.
//
// The table covers outcomes [0, k-1); its last bucket is the tail mass
// P(X >= k-1). The geometric distribution is memoryless, so the tail
// resolves by adding k-1 and redrawing — the alias table over the
// shifted distribution is the same table. rounds bounds the redraws
// (and thereby the per-call draw count, which the counter-based RNG's
// per-instruction budget requires); the sampler truncates at
// rounds*(k-1), the v3 analogue of v2's hard cap at 10000.

// rngSource is what the multi-round samplers draw from: the sequential
// fastRand (program construction, lock schedule) or the counter-based
// ctrRand (kernel segment lengths). None of them is on the hot path.
type rngSource interface{ next() uint64 }

// aliasThrBits is the precision of the acceptance thresholds: the top
// 54 bits of the draw decide accept-vs-alias while the low bits select
// the column, so the two decisions use disjoint bits of one draw.
const aliasThrBits = 54

// aliasGeom samples the geometric distribution with success
// probability 1/mean (the distribution of floor(log(u)/log(1-1/mean))
// for uniform u). A nil sampler is valid and always returns 0, which
// is the v2 behaviour for mean <= 1.
type aliasGeom struct {
	thr []uint64 // acceptance thresholds, scaled to 1<<aliasThrBits
	// out holds both candidates of column j side by side, out[2j] = j and
	// out[2j+1] = its alias, so a probe selects by index, not by branch.
	out    []int32
	mask   uint64 // table size - 1 (size is a power of two)
	rounds int
}

// newAliasGeom builds the alias table for the geometric distribution
// with the given mean. k is the table size (rounded up to a power of
// two, outcomes [0,k-1) plus the tail bucket) and rounds bounds the
// memoryless tail redraws.
func newAliasGeom(mean float64, k, rounds int) *aliasGeom {
	if mean <= 1 {
		return nil
	}
	size := 2
	for size < k {
		size *= 2
	}
	q := 1 - 1/mean
	p := make([]float64, size)
	w := 1 - q // P(X=0)
	for i := 0; i < size-1; i++ {
		p[i] = w
		w *= q
	}
	p[size-1] = math.Pow(q, float64(size-1)) // tail mass P(X >= size-1)

	// Vose's alias construction over the (normalized) probabilities.
	var total float64
	for _, v := range p {
		total += v
	}
	scaled := make([]float64, size)
	small, large := make([]int, 0, size), make([]int, 0, size)
	for i, v := range p {
		scaled[i] = v * float64(size) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	a := &aliasGeom{
		thr:    make([]uint64, size),
		out:    make([]int32, 2*size),
		mask:   uint64(size - 1),
		rounds: rounds,
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.thr[s] = uint64(scaled[s] * (1 << aliasThrBits))
		a.out[2*s], a.out[2*s+1] = int32(s), int32(l)
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, rest := range [][]int{small, large} {
		for _, i := range rest {
			a.thr[i] = 1 << aliasThrBits
			a.out[2*i], a.out[2*i+1] = int32(i), int32(i)
		}
	}
	return a
}

// pick maps one uniform draw to a table outcome: column from the low
// bits, accept-vs-alias from the high bits. With rounds == 1 the sampler
// is exactly this function of one draw, which lets the generator's hot
// probe (dependence distances) call it on an inlined ctrDraw instead of
// going through rngSource.
func (a *aliasGeom) pick(u uint64) int {
	j := u & a.mask
	return int(a.out[2*j+uint64(b2i(u>>(64-aliasThrBits) >= a.thr[j]))])
}

// sample draws one geometric variate, resolving tail buckets by the
// memoryless shift. At most rounds draws are consumed.
func (a *aliasGeom) sample(r rngSource) int {
	if a == nil {
		return 0
	}
	total := 0
	last := int(a.mask)
	for i := 0; i < a.rounds; i++ {
		j := a.pick(r.next())
		if j != last {
			return total + j
		}
		total += last
	}
	return total
}

// geomTableSize picks the alias-table size for a mean: large enough
// that the tail bucket is rare (size ~ 8*mean puts e^-8 of the mass in
// it), bounded so small means get small tables.
func geomTableSize(mean float64) int {
	k := int(8 * mean)
	if k < 64 {
		k = 64
	}
	if k > 4096 {
		k = 4096
	}
	return k
}

// probCut scales a probability to a uint64 threshold: a uniform draw u
// satisfies u < probCut(p) with probability p (to 2^-32), replacing the
// v2 float conversion and comparison on the hot path.
func probCut(p float64) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	if p <= 0 {
		return 0
	}
	return uint64(p*(1<<32)) << 32
}
