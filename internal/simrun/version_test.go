package simrun

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// mixScenario is the scenario class both the v2 and v3 stream-format
// breaks renumbered; the versioning guarantees are asserted against it.
func mixScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := Spec{Mix: []string{"gcc", "mcf"}, Insts: 500}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFingerprintVersionNeverCollides: no stale fingerprint of a
// scenario (v1 to v3) may ever equal its current (v4) fingerprint — the
// whole point of the version field is that results computed under older
// semantics can never be served for a new submission, whatever else the
// scenario spells.
func TestFingerprintVersionNeverCollides(t *testing.T) {
	if FingerprintVersion != 5 {
		t.Fatalf("FingerprintVersion = %d, want 5 (update this test alongside the next deliberate break)", FingerprintVersion)
	}
	for _, build := range []func(t *testing.T) *Scenario{
		mixScenario,
		func(t *testing.T) *Scenario {
			s, err := Spec{Bench: "gcc", Copies: 2, Insts: 500}.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		s := build(t)
		cur, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		for stale := 1; stale < FingerprintVersion; stale++ {
			old, err := s.fingerprintAt(stale)
			if err != nil {
				t.Fatal(err)
			}
			if old == cur {
				t.Fatalf("scenario %q: v%d and v%d fingerprints collide: %s", s.Name(), stale, FingerprintVersion, cur)
			}
		}
	}
}

// TestCacheMissesAcrossVersionBump: a result cache primed with entries
// under the scenario's stale keys (what pre-break simd deployments
// would have persisted under v1 to v3) must not serve them for a v4
// submission — the submission simulates fresh and is stored under the
// v4 key.
func TestCacheMissesAcrossVersionBump(t *testing.T) {
	dir := t.TempDir()
	s := mixScenario(t)
	staleKeys := make(map[string]bool)
	stale := []byte(`{"stale":"pre-v4 payload"}`)
	for v := 1; v < FingerprintVersion; v++ {
		key, err := s.fingerprintAt(v)
		if err != nil {
			t.Fatal(err)
		}
		staleKeys[key] = true
		if err := os.WriteFile(filepath.Join(dir, key+".json"), stale, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCache(CacheOpts{
		Dir:    dir,
		Encode: func(Result) ([]byte, error) { return []byte(`{"fresh":"v4 payload"}`), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := c.GetOrRun(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Source != SourceRun {
		t.Fatalf("v4 submission served from %q, want a fresh run (stale entries must never match)", entry.Source)
	}
	if staleKeys[entry.Key] {
		t.Fatal("v4 submission stored under a stale key")
	}
	if string(entry.Payload) == string(stale) {
		t.Fatal("v4 submission returned a stale payload")
	}
}
