package plan_test

import (
	"fmt"
	"sync"
	"testing"

	"colorfulxml/internal/plan"
)

func cacheOpts() plan.Options {
	return plan.Options{DefaultColor: "red"}
}

func mustCompiled(t *testing.T) *plan.Compiled {
	t.Helper()
	// The cache never inspects the plan; an empty Compiled is enough.
	return &plan.Compiled{}
}

func TestCacheHitMissAndEpochInvalidation(t *testing.T) {
	c := plan.NewCache(4)
	opt := cacheOpts()

	if _, ok := c.Get("q1", opt, 1); ok {
		t.Fatal("hit on empty cache")
	}
	p1 := mustCompiled(t)
	c.Put("q1", opt, 1, p1)

	got, ok := c.Get("q1", opt, 1)
	if !ok || got != p1 {
		t.Fatalf("Get = %v, %v; want cached plan", got, ok)
	}

	// Same query at a moved epoch: the entry is invalidated, not served.
	if _, ok := c.Get("q1", opt, 2); ok {
		t.Fatal("stale-epoch entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after invalidation, want 0", c.Len())
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheHitCountsOnlyHits: the probe made before a query is known to be
// compilable serves and counts a hit like Get, and otherwise changes
// nothing — no miss, no invalidation, the stale entry left for Get.
func TestCacheHitCountsOnlyHits(t *testing.T) {
	c := plan.NewCache(4)
	opt := cacheOpts()
	p1 := mustCompiled(t)
	c.Put("q1", opt, 1, p1)
	if got, ok := c.Hit("q1", opt, 1); !ok || got != p1 {
		t.Fatalf("Hit = %v, %v; want cached plan", got, ok)
	}
	if _, ok := c.Hit("q2", opt, 1); ok {
		t.Fatal("hit on an absent query")
	}
	if _, ok := c.Hit("q1", opt, 2); ok {
		t.Fatal("stale-epoch entry served")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Invalidations != 0 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit and the entry kept", st)
	}
}

func TestCacheKeyIncludesOptions(t *testing.T) {
	c := plan.NewCache(4)
	a := plan.Options{DefaultColor: "red"}
	b := plan.Options{DefaultColor: "blue"}
	c.Put("q", a, 1, mustCompiled(t))
	if _, ok := c.Get("q", b, 1); ok {
		t.Fatal("plan compiled for one default color served to a probe with another")
	}
	if _, ok := c.Get("q", a, 1); !ok {
		t.Fatal("matching options missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := plan.NewCache(2)
	opt := cacheOpts()
	c.Put("a", opt, 1, mustCompiled(t))
	c.Put("b", opt, 1, mustCompiled(t))
	// Touch a so b is the LRU victim.
	if _, ok := c.Get("a", opt, 1); !ok {
		t.Fatal("miss on a")
	}
	c.Put("c", opt, 1, mustCompiled(t))
	if _, ok := c.Get("b", opt, 1); ok {
		t.Fatal("LRU victim b still cached")
	}
	if _, ok := c.Get("a", opt, 1); !ok {
		t.Fatal("recently used a evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheConcurrentChurn(t *testing.T) {
	c := plan.NewCache(8)
	opt := cacheOpts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := fmt.Sprintf("q%d", (g+i)%24)
				if _, ok := c.Get(q, opt, uint64(i%3)); !ok {
					c.Put(q, opt, uint64(i%3), &plan.Compiled{})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}
