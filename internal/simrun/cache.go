package simrun

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// CacheSource says where a GetOrRun result came from.
type CacheSource string

const (
	// SourceRun: a cache miss; the simulator executed the scenario.
	SourceRun CacheSource = "run"
	// SourceMemory: served from the in-memory LRU.
	SourceMemory CacheSource = "memory"
	// SourceDisk: served from the persistent payload store.
	SourceDisk CacheSource = "disk"
	// SourceFlight: an identical request was already in flight (reading
	// or running); this caller waited for it and shares its answer.
	SourceFlight CacheSource = "flight"
)

// CacheEntry is one cached (or just-computed) scenario outcome: the
// same four fields whether it was run, waited for, or read from memory
// or disk.
type CacheEntry struct {
	// Key is the scenario fingerprint.
	Key string
	// Source says how the entry was obtained.
	Source CacheSource
	// Tier is the fidelity tier of the stored answer. The empty tier
	// (payloads written before tiers existed, or caches without a
	// DecodeTier hook) is definitive: it was produced by the full
	// engine and is never replaced.
	Tier Tier
	// Payload is the canonical encoding of the result under
	// CacheOpts.Encode. Identical scenarios always see byte-identical
	// payloads.
	Payload []byte
}

// CacheStats counts cache traffic. Runs is the number of times the
// simulator actually executed — the dedup guarantee under test is
// "identical submissions, Runs == 1".
type CacheStats struct {
	Runs     uint64 // simulator executions (misses)
	Hits     uint64 // in-memory LRU hits
	DiskHits uint64 // persistent-store hits
	Waits    uint64 // callers that waited on an identical in-flight read or run
	Upgrades uint64 // entries replaced in place by a higher tier
	// Quarantined counts persisted payloads that failed the integrity
	// check on load and were renamed aside instead of served.
	Quarantined uint64
}

// CacheOpts configures NewCache.
type CacheOpts struct {
	// Entries bounds the in-memory LRU (<=0 selects 256).
	Entries int
	// Dir, when non-empty, persists encoded payloads as
	// <dir>/<fingerprint>.json so identical scenarios hit across
	// process restarts.
	Dir string
	// Encode renders a result to its canonical payload (for example
	// report.JSON). Required: the payload is all the cache keeps.
	Encode func(Result) ([]byte, error)
	// DecodeTier recovers the fidelity tier of a persisted payload so a
	// restart never serves an estimator-tier answer to a full-tier
	// request. Nil treats every disk payload as definitive — correct
	// for caches that only ever store full-engine results.
	DecodeTier func([]byte) Tier
}

// Cache is a content-addressed result cache over scenario fingerprints:
// an in-memory LRU of encoded payloads, an optional on-disk store of the
// same payloads, and singleflight deduplication so N concurrent
// submissions of the same scenario cost one simulation.
//
// Entries are tier-aware: one cache key per scenario, each entry tagged
// with the fidelity tier of the answer it holds. A lookup is a hit only
// when the stored tier satisfies the requesting engine's tier, and a
// store only ever replaces an entry with a strictly higher tier — the
// upgrade-only invariant that lets a serving layer answer cheap first
// and silently improve the same slot when the full run lands.
type Cache struct {
	entries    int
	dir        string
	encode     func(Result) ([]byte, error)
	decodeTier func([]byte) Tier

	mu     sync.Mutex
	lru    *list.List               // of *cacheSlot, front = most recent
	byKey  map[string]*list.Element // fingerprint -> lru element
	flight map[string]*flightCall   // fingerprint+tier -> in-flight read or run

	runs, hits, diskHits, waits, upgrades, quarantined atomic.Uint64
}

// cacheSlot is one LRU entry: a tier and a payload, as on disk.
type cacheSlot struct {
	key     string
	tier    Tier
	payload []byte
}

type flightCall struct {
	done  chan struct{}
	entry CacheEntry
	err   error
}

// NewCache builds a cache. With a Dir, the directory is created eagerly
// so a bad path fails at startup, not on the first store.
func NewCache(opts CacheOpts) (*Cache, error) {
	if opts.Encode == nil {
		return nil, fmt.Errorf("simrun: cache requires an Encode function")
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("simrun: cache dir: %w", err)
		}
	}
	entries := opts.Entries
	if entries <= 0 {
		entries = 256
	}
	return &Cache{
		entries:    entries,
		dir:        opts.Dir,
		encode:     opts.Encode,
		decodeTier: opts.DecodeTier,
		lru:        list.New(),
		byKey:      map[string]*list.Element{},
		flight:     map[string]*flightCall{},
	}, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Runs:     c.runs.Load(),
		Hits:     c.hits.Load(),
		DiskHits: c.diskHits.Load(),
		Waits:    c.waits.Load(),
		Upgrades: c.upgrades.Load(),

		Quarantined: c.quarantined.Load(),
	}
}

// Put stores an externally produced payload under key — the fleet
// coordinator's completion path for results delivered by workers. The
// store is upgrade-only, exactly like a local run's: a duplicate
// completion of a reassigned job (at-least-once dispatch landing twice)
// or a late estimator result arriving after the full answer is refused,
// never a conflict. Put reports whether the entry now holds this
// payload; accepted payloads also reach the disk store.
func (c *Cache) Put(key string, payload []byte, tier Tier) bool {
	if key == "" || payload == nil {
		return false
	}
	if !c.store(key, payload, tier) {
		return false
	}
	c.storeDisk(key, payload)
	return true
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// GetOrRun returns the cached outcome of s, running the simulation on a
// miss. Identical requests — the same fingerprint and answer tier — share
// one flight: its leader reads memory, then disk, and finally runs, while
// the others wait for it. A scenario without a fingerprint (explicit
// streams) is refused with the fingerprint's error.
//
// Cancelling ctx cancels this caller's wait or run; a piggybacking waiter
// whose leader fails or is cancelled receives the leader's error.
func (c *Cache) GetOrRun(ctx context.Context, s *Scenario) (CacheEntry, error) {
	key, err := s.Fingerprint()
	if err != nil {
		return CacheEntry{}, err
	}
	wanted := s.AnswerTier()
	// Flights are keyed by (fingerprint, requested tier): a full-tier
	// request must not piggyback on an in-flight statistical estimate,
	// and a statistical request should answer fast rather than wait for
	// an in-flight full run.
	fkey := key + "#" + string(wanted)
	c.mu.Lock()
	if fl, ok := c.flight[fkey]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		select {
		case <-fl.done:
			entry := fl.entry
			entry.Source = SourceFlight
			return entry, fl.err
		case <-ctx.Done():
			return CacheEntry{Key: key, Source: SourceFlight}, ctx.Err()
		}
	}
	fl := &flightCall{done: make(chan struct{})}
	c.flight[fkey] = fl
	c.mu.Unlock()

	entry, ok := c.Lookup(key, wanted)
	if !ok {
		entry, err = c.runAndStore(ctx, key, s)
	}
	fl.entry, fl.err = entry, err
	c.mu.Lock()
	delete(c.flight, fkey)
	c.mu.Unlock()
	close(fl.done)
	return entry, err
}

// Lookup returns the answer stored under key when its tier satisfies
// wanted: the in-memory LRU, then the disk store. It is the cache's one
// read path — GetOrRun's flight leader reads through it before running —
// and, called directly, a pure read that never simulates and never waits,
// for serving layers that dispatch misses elsewhere (the fleet
// coordinator). A stored answer satisfies the request only when its tier
// is at least wanted — a full entry answers a statistical request (and
// reports its higher tier), never the reverse. A disk hit is promoted
// into the LRU so repeated requests after a restart stop touching disk;
// without a DecodeTier hook every disk payload is definitive. Slow I/O
// runs outside c.mu, so it never serializes other cache traffic.
func (c *Cache) Lookup(key string, wanted Tier) (CacheEntry, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		if slot := el.Value.(*cacheSlot); slot.tier.AtLeast(wanted) {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return CacheEntry{Key: key, Source: SourceMemory, Tier: slot.tier, Payload: slot.payload}, true
		}
	}
	c.mu.Unlock()
	payload, ok := c.loadDisk(key)
	if !ok {
		return CacheEntry{}, false
	}
	var tier Tier
	if c.decodeTier != nil {
		tier = c.decodeTier(payload)
	}
	if !tier.AtLeast(wanted) {
		return CacheEntry{}, false
	}
	c.diskHits.Add(1)
	c.store(key, payload, tier)
	return CacheEntry{Key: key, Source: SourceDisk, Tier: tier, Payload: payload}, true
}

// runAndStore executes the scenario and, on success, encodes and stores
// the result in the LRU and the disk store.
func (c *Cache) runAndStore(ctx context.Context, key string, s *Scenario) (CacheEntry, error) {
	c.runs.Add(1)
	res, err := s.Run(ctx)
	entry := CacheEntry{Key: key, Source: SourceRun, Tier: res.Tier}
	if err != nil {
		return entry, err
	}
	if entry.Payload, err = c.encode(res); err != nil {
		return entry, fmt.Errorf("simrun: cache encode: %w", err)
	}
	// Only a store that was accepted (insert or upgrade) reaches disk:
	// a lower-tier result arriving after a higher one — a statistical
	// estimate racing an already-landed full run — must not clobber the
	// better persisted answer.
	sp := s.tracer().Start("cache:store")
	if c.store(key, entry.Payload, entry.Tier) {
		c.storeDisk(key, entry.Payload)
	}
	sp.End()
	return entry, nil
}

// store inserts an entry at the front of the LRU, evicting from the
// back. An existing entry under the same key is replaced only by a
// strictly higher tier (the upgrade-only invariant); store reports
// whether the entry now holds this answer.
func (c *Cache) store(key string, payload []byte, tier Tier) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		slot := el.Value.(*cacheSlot)
		if tier.Rank() <= slot.tier.Rank() {
			return false
		}
		slot.tier, slot.payload = tier, payload
		c.upgrades.Add(1)
		return true
	}
	el := c.lru.PushFront(&cacheSlot{key: key, tier: tier, payload: payload})
	c.byKey[key] = el
	for c.lru.Len() > c.entries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheSlot).key)
	}
	return true
}

// diskPath is the content address on disk: one file per fingerprint.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Persisted payloads carry a fixed-length integrity footer — the
// SHA-256 of the payload bytes — so bit rot, torn writes that survived
// the rename, or hand-edited files are detected on load instead of
// being served as simulation results.
const (
	diskSumPrefix = "\n#simcache-sha256:"
	diskSumLen    = len(diskSumPrefix) + sha256.Size*2 + 1 // prefix + hex + "\n"
)

func diskFooter(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return []byte(diskSumPrefix + hex.EncodeToString(sum[:]) + "\n")
}

// loadDisk reads a persisted payload and verifies its integrity footer.
// A file that is too short, lacks the footer, or whose checksum does not
// match its contents is quarantined — renamed aside, counted and logged
// — and reported as a miss, so a corrupt cache entry costs one
// re-simulation, never a wrong answer or a crash. Called without c.mu.
// GetOrRun's flight serializes its own identical reads, but a Lookup may
// read the same file at the same time: that is safe because storeDisk
// replaces a file only by rename, so every read sees one whole file, and
// a corrupt file quarantined twice costs at most one more re-simulation.
func (c *Cache) loadDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(c.diskPath(key))
	if err != nil || len(raw) == 0 {
		return nil, false
	}
	n := len(raw) - diskSumLen
	if n < 0 || !bytes.HasPrefix(raw[n:], []byte(diskSumPrefix)) {
		c.quarantine(key, "missing integrity footer")
		return nil, false
	}
	payload := raw[:n]
	if !bytes.Equal(raw[n:], diskFooter(payload)) {
		c.quarantine(key, "checksum mismatch")
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt cache file aside (for postmortems) so it
// is never read again, and makes the event visible: a counter for
// dashboards, a log line for operators.
func (c *Cache) quarantine(key, why string) {
	c.quarantined.Add(1)
	obsMetrics()
	mCacheQuarantined.Inc()
	path := c.diskPath(key)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Couldn't move it aside — remove it so it cannot be re-read.
		os.Remove(path)
	}
	log.Printf("simrun: cache: quarantined corrupt entry %s (%s)", path, why)
}

// storeDisk persists a payload plus its integrity footer with a
// write-sync-rename so readers never observe a torn file, and a crash
// just after the rename cannot leave an empty entry behind it. Store
// failures are ignored: the disk layer is an optimization, never a
// correctness dependency.
func (c *Cache) storeDisk(key string, payload []byte) {
	if c.dir == "" || payload == nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(payload)
	if werr == nil {
		_, werr = tmp.Write(diskFooter(payload))
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
