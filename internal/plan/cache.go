package plan

import (
	"container/list"
	"sync"

	"colorfulxml/internal/engine"
)

// Cache is a shared LRU of compiled plans, one per text shape (Shape: the
// text's tokens with its literals taken out, plus the default colour), and
// guarded by the storage stats/schema epoch: every entry remembers the epoch
// of the store image it was compiled against, and a probe whose serving
// snapshot has moved to a different epoch treats the entry as invalid. The
// epoch moves only when a fact some compiled answer rests on may have
// stopped holding, or when a tag's count crossed a power of two
// (storage.StatsEpoch): no plan survives a change to a fact its answer
// depends on, and a cost that drifted less than 2× keeps it.
//
// A text of a cached shape is served by the shape's plan with its own
// literals as arguments when the plan fits them (Compiled.bind): its fixed
// literals and its literals' classes are the plan's, and each content count
// a cost choice read for a literal is in the same power of two for the new
// one. Otherwise the text misses, and the plan compiled for it replaces the
// entry: one entry per shape.
//
// The Catalog is deliberately NOT part of the key: it is a per-snapshot
// handle, while a cached plan is reused across snapshots of the same epoch.
// That is sound because compiled operators read everything from the
// execution's Ctx.S at Open — the catalog only steers cost choices, which
// the epoch and the literal checks protect.
//
// Only successful compilations enter the cache. ErrUnsupported (and any
// other compile failure) must bypass it entirely: the evaluator-fallback
// route stays invisible to cache statistics and can never pin a failure.
//
// The same LRU, under the same capacity, keeps parsed update templates by
// the shape of the whole update text (Template), with counters of their
// own: parsing reads no store, so no epoch guards them, and only texts that
// parsed enter.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry

	// Per-cache counters (under mu), mirrored into the process-wide obs
	// instruments so obs snapshots and /debug/metrics see them too.
	hits              uint64
	misses            uint64
	evictions         uint64
	invalidations     uint64
	literalRecompiles uint64
	templateHits      uint64
	templateMisses    uint64
}

type cacheEntry struct {
	key      string
	epoch    uint64
	compiled *Compiled
	tmpl     any // an update template; compiled is nil
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
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the plan the cache holds for the query's shape under the given
// options with the query's literals as arguments, if one exists, was
// compiled at the given epoch and fits them. An entry at a different epoch
// is removed (an invalidation); anything else is reported as a miss.
func (c *Cache) Get(query string, opt Options, epoch uint64) (Plan, bool) {
	sh, ok := QueryShape(query, opt)
	defer sh.Release()
	if !ok {
		c.countMiss()
		return Plan{}, false
	}
	return c.GetShape(sh, opt, epoch)
}

// GetShape is Get for a text already scanned.
func (c *Cache) GetShape(sh Shape, opt Options, epoch uint64) (Plan, bool) {
	return c.lookup(sh, opt, epoch, true)
}

// HitShape is GetShape for a caller that does not yet know whether the
// text can be compiled at all: it counts and serves a hit exactly as
// GetShape does, and on anything else changes nothing — no miss is counted
// and a stale entry is left for GetShape to invalidate — so that a text that
// never reaches the compiler stays invisible to the cache.
func (c *Cache) HitShape(sh Shape, opt Options, epoch uint64) (Plan, bool) {
	return c.lookup(sh, opt, epoch, false)
}

func (c *Cache) lookup(sh Shape, opt Options, epoch uint64, miss bool) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(sh.key)]
	if ok && el.Value.(*cacheEntry).epoch == epoch {
		e := el.Value.(*cacheEntry)
		p := Plan{Compiled: e.compiled}
		vals, fits, drift := e.compiled.bind(sh.args, opt.Catalog, &p.run)
		if fits {
			c.lru.MoveToFront(el)
			c.hits++
			obsPlanCacheHits.Inc()
			p.Args = vals
			return p, true
		}
		if drift && miss {
			c.literalRecompiles++
			obsPlanCacheLiteralRecompiles.Inc()
		}
	} else if ok && miss {
		c.removeLocked(el)
		c.invalidations++
		obsPlanCacheInvalidations.Inc()
	}
	if miss {
		c.misses++
		obsPlanCacheMisses.Inc()
	}
	return Plan{}, false
}

func (c *Cache) countMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	obsPlanCacheMisses.Inc()
}

// Template hands take the update template the cache keeps for the shape of
// an update text (UpdateShape), if it keeps one, and counts a template hit
// when take accepts it and a template miss otherwise. take runs without the
// cache's lock.
func (c *Cache) Template(sh Shape, take func(tmpl any) bool) bool {
	var tmpl any
	c.mu.Lock()
	if el, ok := c.entries[string(sh.key)]; ok {
		c.lru.MoveToFront(el)
		tmpl = el.Value.(*cacheEntry).tmpl
	}
	c.mu.Unlock()
	hit := tmpl != nil && take(tmpl)
	c.mu.Lock()
	if hit {
		c.templateHits++
	} else {
		c.templateMisses++
	}
	c.mu.Unlock()
	return hit
}

// PutTemplate keeps tmpl as the template of the update shape sh, replacing
// the one kept before, as PutShape does a plan.
func (c *Cache) PutTemplate(sh Shape, tmpl any) { c.put(sh, 0, nil, tmpl) }

// Put stores a successfully compiled plan for the query's shape under the
// options at the given epoch, evicting the least-recently-used entry if the
// cache is full. An existing entry for the shape is replaced (a racing
// compile, or a plan compiled for literals the old one did not fit; last
// writer wins). A text that does not lex is not stored.
func (c *Cache) Put(query string, opt Options, epoch uint64, compiled *Compiled) {
	sh, ok := QueryShape(query, opt)
	if ok {
		c.PutShape(sh, epoch, compiled)
	}
	sh.Release()
}

// PutShape is Put for a text already scanned.
func (c *Cache) PutShape(sh Shape, epoch uint64, compiled *Compiled) { c.put(sh, epoch, compiled, nil) }

func (c *Cache) put(sh Shape, epoch uint64, compiled *Compiled, tmpl any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(sh.key)]; ok {
		e := el.Value.(*cacheEntry)
		e.epoch, e.compiled, e.tmpl = epoch, compiled, tmpl
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions++
		obsPlanCacheEvictions.Inc()
	}
	k := string(sh.key)
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, epoch: epoch, compiled: compiled, tmpl: tmpl})
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
	// LiteralRecompiles counts the texts a cached plan of their shape did
	// not serve because a content count it was costed with moved to another
	// power of two for their literals (Compiled.bind).
	LiteralRecompiles uint64 `json:"literal_recompiles"`
	// TemplateHits and TemplateMisses count the update texts a kept
	// template served (Template) and those it did not, which are parsed.
	TemplateHits   uint64 `json:"template_hits"`
	TemplateMisses uint64 `json:"template_misses"`
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

		LiteralRecompiles: c.literalRecompiles,
		TemplateHits:      c.templateHits,
		TemplateMisses:    c.templateMisses,
	}
	pools := make([]*engine.MemPool, 0, st.Size)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if comp := el.Value.(*cacheEntry).compiled; comp != nil {
			pools = append(pools, comp.Mem)
		}
	}
	c.mu.Unlock()
	// Each pool's lock is taken after the cache's is released: no lock-order
	// edge between the two.
	for _, p := range pools {
		st.ScratchBytes += p.Stats().Bytes
	}
	return st
}
