// Package metrics implements the performance metrics of the paper's
// evaluation: IPC, the multi-program metrics STP (system throughput) and
// ANTT (average normalized turnaround time) of Eyerman & Eeckhout, error
// summaries between two simulators, and simulation-speed ratios.
package metrics

import "math"

// IPC returns instructions per cycle, zero when cycles is zero.
func IPC(instructions uint64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(instructions) / float64(cycles)
}

// NormalizedProgress returns the per-program normalized progress values
// NP_i = multiIPC_i / aloneIPC_i used by both STP and ANTT. Programs with a
// zero alone-IPC contribute zero.
func NormalizedProgress(alone, multi []float64) []float64 {
	np := make([]float64, len(multi))
	for i := range multi {
		if i < len(alone) && alone[i] > 0 {
			np[i] = multi[i] / alone[i]
		}
	}
	return np
}

// STP is system throughput: the sum of the normalized progress of the
// co-running programs. Equals the ideal value n when co-running does not
// slow anything down.
func STP(alone, multi []float64) float64 {
	total := 0.0
	for _, np := range NormalizedProgress(alone, multi) {
		total += np
	}
	return total
}

// ANTT is the average normalized turnaround time: the average of the
// per-program slowdowns 1/NP_i. Equals 1 under no interference; larger is
// worse (user-oriented metric).
func ANTT(alone, multi []float64) float64 {
	nps := NormalizedProgress(alone, multi)
	if len(nps) == 0 {
		return 0
	}
	total := 0.0
	n := 0
	for _, np := range nps {
		if np > 0 {
			total += 1 / np
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// RelError returns |estimate-reference|/reference (0 when reference is 0).
func RelError(reference, estimate float64) float64 {
	if reference == 0 {
		return 0
	}
	return math.Abs(estimate-reference) / math.Abs(reference)
}

// Summary aggregates relative errors across a set of experiments.
type Summary struct {
	N       int
	Sum     float64
	Max     float64
	MaxName string
}

// Add records one (reference, estimate) pair under name.
func (s *Summary) Add(name string, reference, estimate float64) {
	e := RelError(reference, estimate)
	s.N++
	s.Sum += e
	if e > s.Max {
		s.Max = e
		s.MaxName = name
	}
}

// Avg returns the mean relative error.
func (s *Summary) Avg() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Speedup returns reference/faster as a ratio (e.g. wall-clock of detailed
// simulation divided by interval simulation). Zero when faster is zero.
func Speedup(reference, faster float64) float64 {
	if faster == 0 {
		return 0
	}
	return reference / faster
}

// GeoMean returns the geometric mean of positive values (non-positive
// values are skipped).
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
