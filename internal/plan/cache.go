package plan

import (
	"container/list"
	"sync"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
)

// Cache is a shared LRU of compiled plans, keyed by query text plus the
// plan-relevant compilation options, and guarded by the storage stats/schema
// epoch: every entry remembers the epoch of the store image it was compiled
// against, and a probe whose serving snapshot has moved to a different epoch
// treats the entry as invalid (the cost choices — join order,
// summary-vs-join lowering — were made from statistics that no longer
// describe the data). Content-only updates preserve the epoch, so the
// cache stays hot across the common point-update workload.
//
// The Catalog is deliberately NOT part of the key: it is a per-snapshot
// handle, while a cached plan is reused across snapshots of the same epoch.
// That is sound because compiled operators read everything from the
// execution's Ctx.S at Open — the catalog only steers cost choices, which
// the epoch protects.
//
// Only successful compilations enter the cache. ErrUnsupported (and any
// other compile failure) must bypass it entirely: the evaluator-fallback
// route stays invisible to cache statistics and can never pin a failure.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry

	// Per-cache counters (under mu), mirrored into the process-wide obs
	// instruments so obs snapshots and /debug/metrics see them too.
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

// cacheKey identifies a compilation: the query text and the option fields
// that change the emitted plan.
type cacheKey struct {
	query        string
	defaultColor core.Color
}

type cacheEntry struct {
	key      cacheKey
	epoch    uint64
	compiled *Compiled
}

func keyFor(query string, opt Options) cacheKey {
	return cacheKey{query: query, defaultColor: opt.DefaultColor}
}

// DefaultCacheSize bounds a cache built with NewCache(0): generous next to
// the Table 2 workload's vocabulary (tens of templates), small next to the
// store.
const DefaultCacheSize = 256

// NewCache returns an empty plan cache holding at most capacity entries
// (<= 0 means DefaultCacheSize).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the cached plan for the query under the given options, if one
// exists and was compiled at the given epoch. An entry at a different epoch
// is removed (an invalidation) and reported as a miss.
func (c *Cache) Get(query string, opt Options, epoch uint64) (*Compiled, bool) {
	return c.get(query, opt, epoch, true)
}

// Hit is Get for a caller that does not yet know whether the query can be
// compiled at all: it counts and serves a hit exactly as Get does, and on
// anything else changes nothing — no miss is counted and a stale entry is
// left for Get to invalidate — so that a query that never reaches the
// compiler stays invisible to the cache.
func (c *Cache) Hit(query string, opt Options, epoch uint64) (*Compiled, bool) {
	return c.get(query, opt, epoch, false)
}

func (c *Cache) get(query string, opt Options, epoch uint64, miss bool) (*Compiled, bool) {
	k := keyFor(query, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if ok && el.Value.(*cacheEntry).epoch == epoch {
		c.lru.MoveToFront(el)
		c.hits++
		obsPlanCacheHits.Inc()
		return el.Value.(*cacheEntry).compiled, true
	}
	if !miss {
		return nil, false
	}
	if ok {
		c.removeLocked(el)
		c.invalidations++
		obsPlanCacheInvalidations.Inc()
	}
	c.misses++
	obsPlanCacheMisses.Inc()
	return nil, false
}

// Put stores a successfully compiled plan under the query/options key at the
// given epoch, evicting the least-recently-used entry if the cache is full.
// An existing entry for the key is replaced (a racing compile of the same
// query — both results are equally valid; last writer wins).
func (c *Cache) Put(query string, opt Options, epoch uint64, compiled *Compiled) {
	k := keyFor(query, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		e.epoch = epoch
		e.compiled = compiled
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions++
		obsPlanCacheEvictions.Inc()
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, epoch: epoch, compiled: compiled})
}

func (c *Cache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time snapshot of the cache's size and traffic,
// serialized by the /debug/plancache endpoint.
type CacheStats struct {
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// ScratchBytes is the execution scratch the cached plans' memory pools
	// hold (engine.MemPoolStats.Bytes, summed).
	ScratchBytes int64 `json:"scratch_bytes"`
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		Size:          c.lru.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	pools := make([]*engine.MemPool, 0, st.Size)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		pools = append(pools, el.Value.(*cacheEntry).compiled.Mem)
	}
	c.mu.Unlock()
	// Each pool's lock is taken after the cache's is released: no lock-order
	// edge between the two.
	for _, p := range pools {
		st.ScratchBytes += p.Stats().Bytes
	}
	return st
}
