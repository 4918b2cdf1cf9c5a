package simrun

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func newMemCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCachePutLookupUpgradeOnly(t *testing.T) {
	c := newMemCache(t)
	key := "abc123"

	if _, ok := c.Lookup(key, TierStatistical); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	if c.Put("", []byte("x"), TierStatistical) {
		t.Error("Put accepted an empty key")
	}
	if c.Put(key, nil, TierStatistical) {
		t.Error("Put accepted a nil payload")
	}

	if !c.Put(key, []byte("estimate"), TierStatistical) {
		t.Fatal("first Put refused")
	}
	if entry, ok := c.Lookup(key, TierStatistical); !ok || string(entry.Payload) != "estimate" {
		t.Fatalf("statistical lookup = (%+v, %v)", entry, ok)
	}
	// A higher-fidelity request must not be served the estimate.
	if _, ok := c.Lookup(key, TierInterval); ok {
		t.Fatal("interval request answered from a statistical entry")
	}

	// Duplicate completion: the same (or any same-tier) payload arriving
	// again dedupes — refused by the upgrade-only store, no conflict.
	if c.Put(key, []byte("estimate"), TierStatistical) {
		t.Error("duplicate same-tier Put was accepted")
	}

	// The upgrade path: a higher tier replaces the slot in place...
	if !c.Put(key, []byte("definitive"), TierInterval) {
		t.Fatal("tier upgrade refused")
	}
	if entry, ok := c.Lookup(key, TierInterval); !ok || string(entry.Payload) != "definitive" {
		t.Fatalf("post-upgrade lookup = (%+v, %v)", entry, ok)
	}
	// ...and a late lower-tier arrival never downgrades it back.
	if c.Put(key, []byte("stale estimate"), TierStatistical) {
		t.Error("downgrade Put was accepted")
	}
	if entry, _ := c.Lookup(key, TierStatistical); string(entry.Payload) != "definitive" {
		t.Errorf("entry payload = %q, want the definitive answer to survive", entry.Payload)
	}
}

// corruptTestCache builds a disk-backed cache with a trivial encoder.
func corruptTestCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := NewCache(CacheOpts{
		Dir:    dir,
		Encode: func(Result) ([]byte, error) { return []byte("payload"), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheQuarantinesCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	key := "deadbeef"
	writer := corruptTestCache(t, dir)
	if !writer.Put(key, []byte(`{"cycles":1}`), "") {
		t.Fatal("Put refused")
	}
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#simcache-sha256:") {
		t.Fatalf("persisted file lacks the integrity footer: %q", raw)
	}

	// Bit rot: flip one payload byte; the footer no longer matches.
	raw[2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reader := corruptTestCache(t, dir)
	if _, ok := reader.Lookup(key, ""); ok {
		t.Fatal("corrupt disk entry was served")
	}
	if got := reader.Stats().Quarantined; got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt file was not renamed aside: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt file still in place: %v", err)
	}

	// The slot is usable again: a fresh Put re-persists a good entry and
	// a fresh cache reads it back.
	if !reader.Put(key, []byte(`{"cycles":1}`), "") {
		t.Fatal("re-Put after quarantine refused")
	}
	if _, ok := corruptTestCache(t, dir).Lookup(key, ""); !ok {
		t.Error("re-persisted entry not readable")
	}
}

func TestCacheQuarantinesFooterlessFile(t *testing.T) {
	dir := t.TempDir()
	key := "cafef00d"
	// A file written by hand (or by a pre-integrity build): no footer.
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(`{"cycles":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := corruptTestCache(t, dir)
	if _, ok := c.Lookup(key, ""); ok {
		t.Fatal("footerless file was served")
	}
	if got := c.Stats().Quarantined; got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}
}

// panicky is a scenario whose instruction stream panics deep inside the
// run, on its first read.
func panicky(t *testing.T) *Scenario {
	t.Helper()
	return build(t, Spec{Label: "poisoned"}, Streams([]trace.Stream{panicSource{}}, nil))
}

type panicSource struct{}

func (panicSource) NextBatch([]isa.Inst) int { panic("kaboom: poisoned scenario") }

func TestRunIsolatesEnginePanic(t *testing.T) {
	_, err := panicky(t).Run(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Engine != DefaultEngine || pe.Scenario != "poisoned" || !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "goroutine") {
		t.Error("PanicError carries no stack trace")
	}
}

func TestBatchSurvivesPanickedScenario(t *testing.T) {
	healthy := build(t, Spec{Bench: "gcc", Insts: 1000})
	results := Batch(context.Background(), []*Scenario{panicky(t), healthy}, BatchOpts{Workers: 1})
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("poisoned scenario err = %v, want *PanicError", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("healthy scenario sank with the poisoned one: %v", results[1].Err)
	}
	if results[1].Result.Cycles == 0 {
		t.Error("healthy scenario produced no result")
	}
}
