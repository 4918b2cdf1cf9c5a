package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spreadPct is the interquartile range as a percentage of the median.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func seconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }

// calibOps is the operation count of one calibration sample: about 130 ms on
// the reference host. The host's jitter is mostly shorter than that, and a
// sample has to average it the way a second-long pass does, or scaling by it
// adds more noise than it removes.
const calibOps = 1 << 24

// smokeCalibOps keeps the tier-1 smoke runs short; their timings gate
// nothing.
const smokeCalibOps = 1 << 18

// calibTable is the kernel's working set: 256 KiB, larger than an L1 and
// smaller than any L2 the simulator is likely to run on, so the kernel is
// sensitive to both a throttled clock and a neighbour thrashing the cache.
var calibTable [1 << 15]uint64

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibrate runs the fixed calibration kernel for ops operations and returns
// its ns per operation. The kernel is the benchmark's host thermometer: it does the
// same work on every commit, so a change in its time is host weather, not
// code. It must never be edited — numbers from before and after an edit
// would no longer be comparable.
func calibrate(ops int) float64 {
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(calibTable)-1)
		calibTable[j] += x
		x += calibTable[(j+64)&uint64(len(calibTable)-1)]
	}
	d := time.Since(t0)
	calibSink += x
	return float64(d.Nanoseconds()) / float64(ops)
}

// peakRSSMiB is the process's peak resident set (VmHWM); where /proc is
// missing it falls back to the memory the Go runtime obtained from the OS.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
