package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	if got := IPC(100, 50); got != 2 {
		t.Fatalf("IPC = %v", got)
	}
	if IPC(100, 0) != 0 {
		t.Fatal("IPC with zero cycles nonzero")
	}
}

func TestSTPIdealAndDegraded(t *testing.T) {
	alone := []float64{2, 2}
	if got := STP(alone, []float64{2, 2}); got != 2 {
		t.Fatalf("ideal STP = %v, want 2 (n)", got)
	}
	if got := STP(alone, []float64{1, 1}); got != 1 {
		t.Fatalf("halved STP = %v, want 1", got)
	}
}

func TestANTTIdealAndDegraded(t *testing.T) {
	alone := []float64{2, 4}
	if got := ANTT(alone, []float64{2, 4}); got != 1 {
		t.Fatalf("ideal ANTT = %v, want 1", got)
	}
	if got := ANTT(alone, []float64{1, 2}); got != 2 {
		t.Fatalf("halved ANTT = %v, want 2", got)
	}
	if ANTT(nil, nil) != 0 {
		t.Fatal("empty ANTT nonzero")
	}
}

func TestNormalizedProgressZeros(t *testing.T) {
	np := NormalizedProgress([]float64{0, 2}, []float64{1, 1})
	if np[0] != 0 || np[1] != 0.5 {
		t.Fatalf("np = %v", np)
	}
}

func TestRelError(t *testing.T) {
	if got := RelError(2, 2.2); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelError = %v", got)
	}
	if got := RelError(2, 1.8); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelError = %v", got)
	}
	if RelError(0, 5) != 0 {
		t.Fatal("zero-reference error nonzero")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	s.Add("a", 1, 1.1)
	s.Add("b", 1, 1.3)
	s.Add("c", 1, 0.95)
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	if s.MaxName != "b" || math.Abs(s.Max-0.3) > 1e-12 {
		t.Fatalf("max = %v (%s)", s.Max, s.MaxName)
	}
	want := (0.1 + 0.3 + 0.05) / 3
	if math.Abs(s.Avg()-want) > 1e-12 {
		t.Fatalf("avg = %v, want %v", s.Avg(), want)
	}
	var empty Summary
	if empty.Avg() != 0 {
		t.Fatal("empty summary avg nonzero")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10, 2); got != 5 {
		t.Fatalf("speedup = %v", got)
	}
	if Speedup(10, 0) != 0 {
		t.Fatal("divide by zero not handled")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if got := GeoMean([]float64{5, 0, -1}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("geomean skipping nonpositive = %v, want 5", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean nonzero")
	}
}

// Property: STP of n identical programs with identical slowdown s is n*s,
// and ANTT is 1/s.
func TestQuickSTPANTTIdentity(t *testing.T) {
	f := func(n uint8, alone, slow float64) bool {
		k := int(n%6) + 1
		a := math.Abs(alone)
		if a < 0.01 || a > 100 {
			return true
		}
		s := math.Mod(math.Abs(slow), 0.99) + 0.01
		al := make([]float64, k)
		mu := make([]float64, k)
		for i := range al {
			al[i] = a
			mu[i] = a * s
		}
		stp := STP(al, mu)
		antt := ANTT(al, mu)
		return math.Abs(stp-float64(k)*s) < 1e-9 && math.Abs(antt-1/s) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: RelError is symmetric in scale: error of (r, e) equals error of
// (c*r, c*e) for positive c.
func TestQuickRelErrorScaleInvariance(t *testing.T) {
	f := func(r, e, c float64) bool {
		r = math.Mod(math.Abs(r), 1e6) + 0.1
		e = math.Mod(math.Abs(e), 1e6) + 0.1
		c = math.Mod(math.Abs(c), 1e3) + 0.1
		return math.Abs(RelError(r, e)-RelError(c*r, c*e)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
