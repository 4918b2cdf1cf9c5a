package sampling

import (
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/trace"
	"repro/internal/workload"
)

// estimates is everything the package's three timed entry points answer
// for one benchmark under one core model: Run in three regimes (sampled
// with and without the initial warm-up, contiguous), EstimateIPC and
// EstimateIPCSkip.
type estimates struct {
	bench                       string
	model                       multicore.Model
	sampled, noWarm, contiguous Result
	full, skip                  float64
}

// estimateGolden holds the exact answers (== on the floats) recorded at
// 3c4b015, when Run, EstimateIPC and EstimateIPCSkip still warmed and
// stepped their own cores; they are multicore driver calls now and must
// keep answering the same. A deliberate change to the timing models or the
// stream format recomputes the table.
var estimateGolden = []estimates{
	{"gcc", multicore.Interval,
		Result{0.6248437890527369, 5, 10000, 40000},
		Result{0.631632137443153, 5, 10000, 40000},
		Result{0.6177987829363976, 4, 40000, 40000},
		0.6272246875637025, 0.547622633243432},
	{"gcc", multicore.Detailed,
		Result{0.9153318077803204, 5, 10000, 40000},
		Result{0.7181844297615627, 5, 10000, 40000},
		Result{0.916359304483288, 4, 40000, 40000},
		0.8893038973743301, 0.7638398227891611},
	{"mcf", multicore.Interval,
		Result{0.17384048397190738, 5, 10000, 40000},
		Result{0.14525383106979448, 5, 10000, 40000},
		Result{0.16816473417359645, 4, 40000, 40000},
		0.16193807488016582, 0.16168802295969922},
	{"mcf", multicore.Detailed,
		Result{0.14697020913860762, 5, 10000, 40000},
		Result{0.0970054420052965, 5, 10000, 40000},
		Result{0.14335530253344658, 4, 40000, 40000},
		0.13060840661009146, 0.13072707128874014},
	{"swim", multicore.Interval,
		Result{1.2303149606299213, 5, 10000, 40000},
		Result{1.329433661260303, 5, 10000, 40000},
		Result{1.3354254999499215, 4, 40000, 40000},
		1.3112174654166395, 1.292824822236587},
	{"swim", multicore.Detailed,
		Result{1.2135922330097086, 5, 10000, 40000},
		Result{1.3056534795665231, 5, 10000, 40000},
		Result{1.357496775945157, 4, 40000, 40000},
		1.3307162580258827, 1.3238019592268997},
	{"art", multicore.Interval,
		Result{0.32938076416337286, 5, 10000, 40000},
		Result{0.27000027000027, 5, 10000, 40000},
		Result{0.3186108566649409, 4, 40000, 40000},
		0.317770522017525, 0.31729411578062283},
	{"art", multicore.Detailed,
		Result{0.21522501775606395, 5, 10000, 40000},
		Result{0.29379792578664393, 5, 10000, 40000},
		Result{0.27617252497635275, 4, 40000, 40000},
		0.27936862690319875, 0.28006105330962144},
	{"twolf", multicore.Interval,
		Result{0.3333333333333333, 5, 10000, 40000},
		Result{0.33038192150125545, 5, 10000, 40000},
		Result{0.3282751602393126, 4, 40000, 40000},
		0.23142523229307688, 0.21960887659079173},
	{"twolf", multicore.Detailed,
		Result{0.47975436576472846, 5, 10000, 40000},
		Result{0.5221386800334169, 5, 10000, 40000},
		Result{0.5253963458684144, 4, 40000, 40000},
		0.3513518261511163, 0.3344705331460298},
	{"bzip2", multicore.Interval,
		Result{1.1145786892554614, 5, 10000, 40000},
		Result{1.1381743683132255, 5, 10000, 40000},
		Result{1.1368804001819008, 4, 40000, 40000},
		0.8427794867472925, 0.8245892514791069},
	{"bzip2", multicore.Detailed,
		Result{1.0813148788927336, 5, 10000, 40000},
		Result{1.1496895838123706, 5, 10000, 40000},
		Result{1.0995052226498077, 4, 40000, 40000},
		0.8666450005416532, 0.8439886905515467},
	{"equake", multicore.Interval,
		Result{1.2858428700012858, 5, 10000, 40000},
		Result{1.1590171534538711, 5, 10000, 40000},
		Result{1.2607955619996218, 4, 40000, 40000},
		1.0844516741222718, 1.073191672032625},
	{"equake", multicore.Detailed,
		Result{1.2743723716069835, 5, 10000, 40000},
		Result{1.1865211200759374, 5, 10000, 40000},
		Result{1.3145354760261592, 4, 40000, 40000},
		1.1092315798230776, 1.059265928711403},
	{"vpr", multicore.Interval,
		Result{0.4215673875468994, 5, 10000, 40000},
		Result{0.45012603528988115, 5, 10000, 40000},
		Result{0.4364810894567993, 4, 40000, 40000},
		0.34252733796316115, 0.33812341504649196},
	{"vpr", multicore.Detailed,
		Result{0.4633061527057079, 5, 10000, 40000},
		Result{0.536797466315959, 5, 10000, 40000},
		Result{0.49883397558207687, 4, 40000, 40000},
		0.360818697624911, 0.3599096626746687},
}

func TestEstimatesGolden(t *testing.T) {
	for _, want := range estimateGolden {
		want := want
		t.Run(want.bench+"/"+want.model.String(), func(t *testing.T) {
			if got := measureEstimates(t, want.bench, want.model); got != want {
				t.Errorf("estimates changed:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func measureEstimates(t *testing.T, bench string, model multicore.Model) estimates {
	t.Helper()
	const total = 40_000
	p := workload.SPECByName(bench)
	m := config.Default(1)
	got := estimates{bench: bench, model: model}
	for _, regime := range []struct {
		cfg Config
		out *Result
	}{
		{Config{Unit: 2_000, Period: 8_000, InitialWarmup: 30_000}, &got.sampled},
		{Config{Unit: 2_000, Period: 8_000}, &got.noWarm},
		{Config{Unit: 10_000, Period: 10_000, InitialWarmup: 30_000}, &got.contiguous},
	} {
		regime.cfg.Model, regime.cfg.Machine = model, m
		res, err := Run(regime.cfg, workload.New(p, 0, 1, 42), total)
		if err != nil {
			t.Fatal(err)
		}
		*regime.out = res
	}
	insts := trace.Record(workload.New(p, 0, 1, 42), total)
	sp, err := Analyze(insts, SimPointConfig{IntervalLen: 4_000, K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got.full, err = EstimateIPC(insts, sp, m, model); err != nil {
		t.Fatal(err)
	}
	// A 6 000-instruction window: representatives near the stream head warm
	// with what there is in front of them, the others with the full window.
	open := func() SkipStream { return workload.New(p, 0, 1, 42) }
	if got.skip, err = EstimateIPCSkip(open, sp, 6_000, m, model); err != nil {
		t.Fatal(err)
	}
	return got
}
