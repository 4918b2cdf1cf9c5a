package workload

import (
	"hash/fnv"
	"testing"

	"repro/internal/isa/isatest"
	"repro/internal/trace"
)

// streamHash is FNV-64a over the instructions as isatest.Write prints
// them, the same digest the statsim golden uses.
func streamHash(p *Profile, seed int64, slot int, n int) uint64 {
	g := NewSlot(p, 0, 1, seed, slot)
	h := fnv.New64a()
	for _, in := range trace.Record(g, n) {
		isatest.Write(h, &in)
	}
	return h.Sum64()
}

// TestStreamGoldensV3 pins the exact v3 byte stream per (profile, seed,
// slot). These constants define stream format v3: any change to the
// counter-lane layout, the alias tables, or the chunk-reset schedule
// shows up here and requires a StreamVersion bump, not a golden edit.
func TestStreamGoldensV3(t *testing.T) {
	if StreamVersion != 3 {
		t.Fatalf("goldens pin stream format v3, StreamVersion = %d", StreamVersion)
	}
	const n = 30_000
	for _, tc := range []struct {
		profile string
		parsec  bool
		seed    int64
		slot    int
		want    uint64
	}{
		{profile: "gcc", seed: 42, slot: 0, want: 0x53305fdd2d531589},
		{profile: "gcc", seed: 42, slot: 7, want: 0xf4f37e9f195c674f},
		{profile: "gcc", seed: 1337, slot: 0, want: 0x23c5039c75571fdd},
		{profile: "mcf", seed: 42, slot: 0, want: 0xfbb6fda408c97517},
		{profile: "swim", seed: 42, slot: 0, want: 0x86f798af1c8fda3f},
		{profile: "art", seed: 7, slot: 3, want: 0xf28c4cd8ad9aadba},
		{profile: "equake", seed: 42, slot: 0, want: 0x210be3904ed32271},
		{profile: "blackscholes", parsec: true, seed: 42, slot: 0, want: 0x8491ecd2b80283a5},
		{profile: "streamcluster", parsec: true, seed: 42, slot: 0, want: 0xff579b1d5a7521cb},
	} {
		var p *Profile
		if tc.parsec {
			p = PARSECByName(tc.profile)
		} else {
			p = SPECByName(tc.profile)
		}
		got := streamHash(p, tc.seed, tc.slot, n)
		if got != tc.want {
			t.Errorf("%s seed=%d slot=%d: stream hash %#x, golden %#x",
				tc.profile, tc.seed, tc.slot, got, tc.want)
		}
	}
}
