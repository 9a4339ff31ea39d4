package plan_test

import (
	"fmt"
	"sync"
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
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
	if !ok || got.Compiled != p1 {
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
// compilable (HitShape) serves and counts a hit like Get, and otherwise changes
// nothing — no miss, no invalidation, the stale entry left for Get.
func TestCacheHitCountsOnlyHits(t *testing.T) {
	c := plan.NewCache(4)
	opt := cacheOpts()
	p1 := mustCompiled(t)
	c.Put("q1", opt, 1, p1)
	hit := func(q string, epoch uint64) (plan.Plan, bool) {
		sh, _ := plan.QueryShape(q, opt)
		defer sh.Release()
		return c.HitShape(sh, opt, epoch)
	}
	if got, ok := hit("q1", 1); !ok || got.Compiled != p1 {
		t.Fatalf("HitShape = %v, %v; want cached plan", got, ok)
	}
	if _, ok := hit("q2", 1); ok {
		t.Fatal("hit on an absent query")
	}
	if _, ok := hit("q1", 2); ok {
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

// TestHitHandsOverTheCountedRun: serving a point query's plan to a text with
// another name recounts that name's content run to check the plan's cost
// choice, and the plan it hands out carries the run, so the execution's
// content lookup reads it instead of seeking it again; a text with the
// plan's own literal recounts nothing. Either way the answer is the text's.
func TestHitHandsOverTheCountedRun(t *testing.T) {
	st, err := storage.Load(fixtures.NewCatalog(300).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: st}}
	point := func(k int) string {
		return fmt.Sprintf(`document("db")/{red}descendant::name[. = "Item %d"]`, k)
	}
	comp, err := plan.CompileQuery(point(7), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ps := plan.ParamsOf(comp); len(ps) != 1 || ps[0].Tag != "name" {
		t.Fatalf("the point query's parameters are %+v, want its name, costed", ps)
	}
	c := plan.NewCache(0)
	c.Put(point(7), opt, st.StatsEpoch(), comp)
	for _, k := range []int{7, 8} {
		p, ok := c.Get(point(k), opt, st.StatsEpoch())
		if !ok {
			t.Fatalf("Item %d: no hit", k)
		}
		if run := plan.RunOf(p); (run.N == 1) != (k != 7) {
			t.Errorf("Item %d: the plan carries a counted run of %d", k, run.N)
		}
		ids, _, err := engine.ExecColumn(nil, st, p.Mem, p.Instance().Root, p.OutCol, p.Rows, nil)
		if err != nil || len(ids) != 1 {
			t.Fatalf("Item %d: %v, %v", k, ids, err)
		}
		if info, err := st.Elem(ids[0]); err != nil || info.Content != fmt.Sprintf("Item %d", k) {
			t.Errorf("Item %d: found %+v, %v", k, info, err)
		}
	}
}
