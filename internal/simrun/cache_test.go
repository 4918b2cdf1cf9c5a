package simrun

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// testEncode is a deterministic stand-in for report.JSON (which lives
// above simrun): the simulated outcome without host-side measurements.
func testEncode(r Result) ([]byte, error) {
	return json.Marshal(map[string]any{
		"cycles":  r.Cycles,
		"retired": r.TotalRetired,
	})
}

func testScenario(t *testing.T, sp Spec) *Scenario {
	t.Helper()
	sp.Bench, sp.Insts = "gcc", 2000
	return build(t, sp)
}

func TestCacheHit(t *testing.T) {
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.GetOrRun(context.Background(), testScenario(t, Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceRun {
		t.Fatalf("first lookup source = %s, want %s", first.Source, SourceRun)
	}
	// A second, separately built but identical scenario must hit.
	second, err := c.GetOrRun(context.Background(), testScenario(t, Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceMemory {
		t.Fatalf("second lookup source = %s, want %s", second.Source, SourceMemory)
	}
	if stats := c.Stats(); stats.Runs != 1 || stats.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 run and 1 hit", stats)
	}
	if !bytes.Equal(first.Payload, second.Payload) {
		t.Fatalf("cache hit payload differs from the run payload")
	}

	// The cached payload is bit-identical to a direct, uncached run.
	direct, err := testScenario(t, Spec{}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := testEncode(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, second.Payload) {
		t.Fatalf("cached payload %s differs from direct run %s", second.Payload, raw)
	}
}

func TestCacheDistinctScenariosMiss(t *testing.T) {
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Spec{{}, {Seed: seedOf(7)}, {Fabric: "mesh"}} {
		if _, err := c.GetOrRun(context.Background(), testScenario(t, sp)); err != nil {
			t.Fatal(err)
		}
	}
	if stats := c.Stats(); stats.Runs != 3 || stats.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 runs and 0 hits", stats)
	}
}

// Identical scenarios submitted concurrently cost exactly one simulation:
// the rest piggyback on the in-flight run or hit the fresh entry.
func TestCacheSingleflight(t *testing.T) {
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	entries := make([]CacheEntry, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			entries[i], errs[i] = c.GetOrRun(context.Background(), testScenario(t, Spec{}))
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(entries[i].Payload, entries[0].Payload) {
			t.Fatalf("caller %d saw a different payload", i)
		}
	}
	stats := c.Stats()
	if stats.Runs != 1 {
		t.Fatalf("%d concurrent identical submissions ran the simulator %d times", callers, stats.Runs)
	}
	if stats.Hits+stats.Waits != callers-1 {
		t.Fatalf("stats = %+v, want hits+waits = %d", stats, callers-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(CacheOpts{Entries: 1, Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.GetOrRun(ctx, testScenario(t, Spec{})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrRun(ctx, testScenario(t, Spec{Seed: seedOf(7)})); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("cache holds %d entries, want 1", got)
	}
	// The first scenario was evicted, so it runs again.
	if _, err := c.GetOrRun(ctx, testScenario(t, Spec{})); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.Runs != 3 {
		t.Fatalf("stats = %+v, want 3 runs after eviction", stats)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheOpts{Dir: dir, Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c1.GetOrRun(context.Background(), testScenario(t, Spec{}))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory — a service restart — hits
	// the persisted payload without simulating.
	c2, err := NewCache(CacheOpts{Dir: dir, Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c2.GetOrRun(context.Background(), testScenario(t, Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceDisk {
		t.Fatalf("restart lookup source = %s, want %s", second.Source, SourceDisk)
	}
	if !bytes.Equal(first.Payload, second.Payload) {
		t.Fatalf("persisted payload differs from the original")
	}
	if stats := c2.Stats(); stats.Runs != 0 || stats.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 0 runs and 1 disk hit", stats)
	}

	// The disk hit was promoted into the LRU: repeated requests stop
	// touching disk.
	third, err := c2.GetOrRun(context.Background(), testScenario(t, Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != SourceMemory {
		t.Fatalf("post-promotion lookup source = %s, want %s", third.Source, SourceMemory)
	}
	if !bytes.Equal(first.Payload, third.Payload) {
		t.Fatalf("promoted payload differs from the original")
	}
	if stats := c2.Stats(); stats.DiskHits != 1 || stats.Runs != 0 {
		t.Fatalf("stats = %+v, want the single disk hit to stick", stats)
	}
}

func TestCacheRequiresEncode(t *testing.T) {
	for _, opts := range []CacheOpts{{}, {Dir: t.TempDir()}} {
		if _, err := NewCache(opts); err == nil {
			t.Fatalf("NewCache(%+v) accepted a cache without an Encode function", opts)
		}
	}
}

// A scenario without a fingerprint (explicit streams) is refused with
// the fingerprint's error: the cache neither runs nor stores it.
func TestCacheUncacheableStreams(t *testing.T) {
	c, err := NewCache(CacheOpts{Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.NewLimit(workload.New(workload.SPECByName("gcc"), 0, 1, 1), 500)
	s, err := New("", Streams([]trace.Stream{stream}, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, fpErr := s.Fingerprint()
	if fpErr == nil {
		t.Fatal("a streams scenario has a fingerprint")
	}
	if _, err := c.GetOrRun(context.Background(), s); err == nil || err.Error() != fpErr.Error() {
		t.Fatalf("GetOrRun error = %v, want the fingerprint error %v", err, fpErr)
	}
	if stats := c.Stats(); stats.Runs != 0 {
		t.Fatalf("stats = %+v, want 0 runs", stats)
	}
	if c.Len() != 0 {
		t.Fatalf("uncacheable scenario was stored")
	}
}

// A cached entry holds its payload and nothing else: with "report" on,
// a run's Result carries the whole simulated machine, which the cache
// must not keep alive. Not parallel: it reads the process heap.
func TestCacheRetainsOnlyPayloads(t *testing.T) {
	const entries, budget = 16, 64 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c, err := NewCache(CacheOpts{Entries: entries, Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	before := heap()
	for i := 0; i < entries; i++ {
		if _, err := c.GetOrRun(context.Background(), testScenario(t, Spec{Report: true, Seed: seedOf(int64(i + 1))})); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if c.Len() != entries {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), entries)
	}
	if after > before {
		if per := (after - before) / entries; per >= budget {
			t.Fatalf("each cached entry retains %d bytes of heap, want < %d", per, budget)
		}
	}
}

// Example-style check that the fingerprint keys files on disk.
func TestCacheDiskLayout(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheOpts{Dir: dir, Encode: testEncode})
	if err != nil {
		t.Fatal(err)
	}
	s := testScenario(t, Spec{})
	entry, err := c.GetOrRun(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if entry.Key != key {
		t.Fatalf("entry key %s != scenario fingerprint %s", entry.Key, key)
	}
	if _, ok := c.loadDisk(key); !ok {
		t.Fatalf("no payload stored at %s", fmt.Sprintf("%s/%s.json", dir, key))
	}
}
