package multicore_test

import (
	"bytes"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shortReads hands its stream out in chunks of one to five instructions
// however much room the caller offers. A short count is legal anywhere in a
// stream (trace.Stream), so where the chunks end must never show in a
// result.
type shortReads struct {
	s     trace.Stream
	calls int
}

func (r *shortReads) NextBatch(buf []isa.Inst) int {
	r.calls++
	return r.s.NextBatch(buf[:min(len(buf), 1+r.calls%5)])
}

// hide wraps every stream in a short-reading shell.
func hide(streams []trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(streams))
	for i, s := range streams {
		out[i] = &shortReads{s: s}
	}
	return out
}

// runJSON simulates and renders the machine-readable report, which covers
// cycles, per-core IPC and the full hierarchy statistics — any divergence
// between the full-chunk and the short-read hand-off shows up here.
func runJSON(t *testing.T, cfg multicore.RunConfig, streams []trace.Stream) []byte {
	t.Helper()
	cfg.KeepCores = true
	res := multicore.Run(cfg, streams)
	raw, err := report.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBatchedStreamEquivalence: for all three core models, simulating over
// streams that fill every chunk and over the same streams reading short
// must produce bit-identical reports — with and without separate warmup
// twins.
func TestBatchedStreamEquivalence(t *testing.T) {
	const insts, warm = 12_000, 30_000
	models := []multicore.Model{multicore.Interval, multicore.Detailed, multicore.OneIPC}

	t.Run("spec-single-core", func(t *testing.T) {
		p := workload.SPECByName("gcc")
		for _, m := range models {
			m := m
			t.Run(m.String(), func(t *testing.T) {
				mk := func() ([]trace.Stream, []trace.Stream) {
					return []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts)},
						[]trace.Stream{workload.New(p, 0, 1, 1042)}
				}
				cfg := multicore.RunConfig{Machine: config.Default(1), Model: m, WarmupInsts: warm}

				s1, w1 := mk()
				cfg1 := cfg
				cfg1.Warmup = w1
				batched := runJSON(t, cfg1, s1)

				s2, w2 := mk()
				cfg2 := cfg
				cfg2.Warmup = hide(w2)
				unbatched := runJSON(t, cfg2, hide(s2))

				if !bytes.Equal(batched, unbatched) {
					t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
				}
			})
		}
	})

	t.Run("spec-warmup-from-head", func(t *testing.T) {
		// Warmup consuming the head of the main stream is the case where
		// over-reading by one batch would corrupt the timed portion.
		p := workload.SPECByName("mcf")
		cfg := multicore.RunConfig{Machine: config.Default(1), Model: multicore.Interval, WarmupInsts: warm}
		batched := runJSON(t, cfg,
			[]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts+warm)})
		unbatched := runJSON(t, cfg,
			hide([]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts+warm)}))
		if !bytes.Equal(batched, unbatched) {
			t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
		}
	})

	t.Run("parsec-multicore", func(t *testing.T) {
		p := workload.PARSECByName("canneal")
		q := *p
		q.TotalWork = 40_000
		for _, m := range models {
			m := m
			t.Run(m.String(), func(t *testing.T) {
				mk := func() []trace.Stream {
					streams := make([]trace.Stream, 4)
					for i := range streams {
						streams[i] = workload.New(&q, i, 4, 42)
					}
					return streams
				}
				cfg := multicore.RunConfig{
					Machine: config.Default(4), Model: m, MaxCycles: 50_000_000,
				}
				batched := runJSON(t, cfg, mk())
				unbatched := runJSON(t, cfg, hide(mk()))
				if !bytes.Equal(batched, unbatched) {
					t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
				}
			})
		}
	})

	t.Run("replay-matches-generated", func(t *testing.T) {
		// A recorded trace replayed through SliceStream must time exactly
		// like the generator it was recorded from.
		p := workload.SPECByName("swim")
		cfg := multicore.RunConfig{Machine: config.Default(1), Model: multicore.Interval, WarmupInsts: warm}

		cfgGen := cfg
		cfgGen.Warmup = []trace.Stream{workload.New(p, 0, 1, 1042)}
		generated := runJSON(t, cfgGen,
			[]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts)})

		tr := trace.Record(workload.New(p, 0, 1, 42), insts)
		wtr := trace.Record(workload.New(p, 0, 1, 1042), warm)
		cfgRep := cfg
		cfgRep.Warmup = []trace.Stream{trace.NewSliceStream(wtr)}
		replayed := runJSON(t, cfgRep, []trace.Stream{trace.NewSliceStream(tr)})

		if !bytes.Equal(generated, replayed) {
			t.Fatalf("generated and replayed reports differ:\n%s\n--\n%s", generated, replayed)
		}
	})
}

// TestWarmupFetchesPerLine: warm-up fetches only on the first instruction
// of each 64-byte line, as the timed cores do. The skipped fetches would
// have hit the most recently used line, so the warmed machine must be the
// one a fetch per instruction leaves: after either warm-up the same
// accesses get the same answers, here on gcc's large code footprint (the
// L1I evicts throughout) and with two cores warmed one after the other.
func TestWarmupFetchesPerLine(t *testing.T) {
	const warm, probe = 60_000, 40_000
	m := config.Default(2)
	p := workload.SPECByName("gcc")
	recs := [][]isa.Inst{
		trace.Record(workload.New(p, 0, 1, 42), warm+probe),
		trace.Record(workload.NewSlot(p, 0, 1, 43, 1), warm+probe),
	}
	units := func() []*branch.Unit {
		return []*branch.Unit{branch.NewUnit(m.Branch), branch.NewUnit(m.Branch)}
	}

	got, gotBP := memhier.New(2, m.Mem, memhier.Perfect{}), units()
	multicore.Warmup(got, gotBP, []trace.Stream{
		trace.NewSliceStream(recs[0][:warm]), trace.NewSliceStream(recs[1][:warm]),
	}, warm)

	// The reference: every instruction fetches.
	want, wantBP := memhier.New(2, m.Mem, memhier.Perfect{}), units()
	for i, rec := range recs {
		for j := range rec[:warm] {
			in := &rec[j]
			want.Inst(i, in.PC, 0)
			if in.Class.IsBranch() {
				wantBP[i].Predict(in)
			}
			if in.Class.IsMem() {
				want.Data(i, in.Addr, in.Class == isa.Store, 0)
			}
		}
	}
	want.ResetStats()

	for i, rec := range recs {
		for j := range rec[warm:] {
			in := &rec[warm+j]
			now := int64(j)
			if g, w := got.Inst(i, in.PC, now), want.Inst(i, in.PC, now); g != w {
				t.Fatalf("core %d, instruction %d after warm-up: fetch %+v, per-instruction warm-up gives %+v", i, j, g, w)
			}
			if in.Class.IsMem() {
				st := in.Class == isa.Store
				if g, w := got.Data(i, in.Addr, st, now), want.Data(i, in.Addr, st, now); g != w {
					t.Fatalf("core %d, instruction %d after warm-up: data access %+v, per-instruction warm-up gives %+v", i, j, g, w)
				}
			}
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("statistics after warm-up and probe differ:\n got %+v\nwant %+v", g, w)
	}
}
