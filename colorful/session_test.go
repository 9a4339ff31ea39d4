package colorful

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
)

// sessionSet answers a query through a session and returns the distinct
// value set, for differential comparison against evaluatorSet.
func sessionSet(t *testing.T, s *Session, q string) map[string]bool {
	t.Helper()
	out, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, it := range out {
		set[it.Value] = true
	}
	return set
}

const namesQuery = `document("db")/{red}descendant::movie/{red}child::name`

// TestSessionCacheHitsAndRoute: the second identical query through a session
// is served by the plan cache (cached route, cache hit), with results
// identical to the cold compile and to the evaluator.
func TestSessionCacheHitsAndRoute(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	defer s.Close()

	want := evaluatorSet(t, db, namesQuery)
	before := db.PlanCacheStats()
	for i := 0; i < 3; i++ {
		out, err := s.QueryContext(context.Background(), namesQuery)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, it := range out {
			got[it.Value] = true
		}
		if setString(got) != setString(want) {
			t.Fatalf("run %d: got %s, want %s", i, setString(got), setString(want))
		}
	}
	st := s.Stats()
	if st.Queries != 3 || st.Compiled != 1 || st.CacheHits != 2 {
		t.Fatalf("session stats = %+v, want 3 queries / 1 compiled / 2 cache hits", st)
	}
	cs := db.PlanCacheStats()
	if cs.Hits-before.Hits != 2 {
		t.Fatalf("cache hits = %d, want 2 (stats %+v)", cs.Hits-before.Hits, cs)
	}
}

// TestEvaluatorFallbackBypassesCache: a query the compiler rejects routes to
// the evaluator without ever probing or populating the plan cache, and the
// route counters report it as a fallback, not a cached query.
func TestEvaluatorFallbackBypassesCache(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	defer s.Close()

	// order by runs on the evaluator (not in the compilable subset).
	fallback := `for $m in document("db")/{red}descendant::movie
	 order by $m/{red}child::name return $m/{red}child::name`
	before := db.PlanCacheStats()
	for i := 0; i < 2; i++ {
		if _, err := s.Query(fallback); err != nil {
			t.Fatal(err)
		}
	}
	after := db.PlanCacheStats()
	if after.Size != before.Size || after.Hits != before.Hits {
		t.Fatalf("fallback query touched cache contents: before %+v after %+v", before, after)
	}
	if st := s.Stats(); st.Fallbacks != 2 || st.CacheHits != 0 {
		t.Fatalf("session stats = %+v, want 2 fallbacks, 0 cache hits", st)
	}
}

// TestStmtAfterSessionClose is the ErrSessionClosed regression test: a
// statement races its executions against Session.Close; every execution
// either completes or reports ErrSessionClosed, and after Close completes
// all further executions report ErrSessionClosed. Run with -race.
func TestStmtAfterSessionClose(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	stmt, err := s.Prepare(namesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := stmt.Query(); err != nil {
					if !errors.Is(err, ErrSessionClosed) {
						errc <- err
					}
					return
				}
			}
		}()
	}
	s.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("statement failed with a non-close error during drain: %v", err)
	}

	if _, err := stmt.Query(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stmt after session close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Query(namesQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("session query after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Prepare(namesQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("prepare after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestDBCloseDrainsSessions: DB.Close closes user sessions and their
// statements, newly created sessions are born closed, and the DB-level
// query path (the auto-session) stays readable, preserving the documented
// Close contract.
func TestDBCloseDrainsSessions(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	stmt, err := s.Prepare(namesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(namesQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("session after DB.Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := stmt.Query(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stmt after DB.Close: err = %v, want ErrSessionClosed", err)
	}
	if born := db.Session(); born != nil {
		if _, err := born.Query(namesQuery); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("session born after DB.Close: err = %v, want ErrSessionClosed", err)
		}
	}
	// The DB-level path survives Close (in-memory reads).
	if _, err := db.Query(namesQuery); err != nil {
		t.Fatalf("DB.Query after Close: %v", err)
	}
}

// TestEpochInvalidationDifferential is the staleness proof, run with the
// Table 2 differential methodology: execute a query until it is served from
// the plan cache, mutate the structure, and check the next execution against
// the reference evaluator on the live database — a stale cached plan over
// the old structure would return the old result set. An insert that changes
// no fact an answer rests on keeps the plans; one that gives a leaf tag its
// first child (name, which the queries read values of) must invalidate them.
func TestEpochInvalidationDifferential(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	defer s.Close()

	queries := []string{
		namesQuery,
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`,
		`for $m in document("db")/{green}descendant::movie return $m/{green}child::votes`,
		`document("db")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name`,
	}
	// Warm the cache: two rounds so every query has hit at least once.
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			if _, err := s.Query(q); err != nil {
				t.Fatalf("warm %q: %v", q, err)
			}
		}
	}
	if st := s.Stats(); st.CacheHits < uint64(len(queries)) {
		t.Fatalf("warmup did not populate the cache: %+v", st)
	}

	// Structural mutations: a new movie with name and votes, then a deletion.
	comedy := m.Node("comedy")
	mv, err := db.AddElement(comedy, "movie", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(mv, "name", "red", "The Gold Rush"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got := sessionSet(t, s, q)
		want := evaluatorSet(t, db, q)
		if setString(got) != setString(want) {
			t.Fatalf("after insert, %q: cached path %s, evaluator %s", q, setString(got), setString(want))
		}
	}
	// A name with an element child: no name is a leaf any more.
	name, err := db.AddElementText(mv, "name", "red", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(name, "aka", "red", "Gold Rush"); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	for _, q := range queries {
		got := sessionSet(t, s, q)
		want := evaluatorSet(t, db, q)
		if setString(got) != setString(want) {
			t.Fatalf("after a name's first child, %q: cached path %s, evaluator %s", q, setString(got), setString(want))
		}
	}
	after := db.PlanCacheStats()
	if after.Invalidations == before.Invalidations {
		t.Fatalf("a leaf tag's first child produced no cache invalidation: before %+v after %+v", before, after)
	}

	if err := db.DeleteSubtree(mv, "red"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got := sessionSet(t, s, q)
		want := evaluatorSet(t, db, q)
		if setString(got) != setString(want) {
			t.Fatalf("after delete, %q: cached path %s, evaluator %s", q, setString(got), setString(want))
		}
	}
}

// TestContentUpdatePreservesCache: a content-only update (no structural
// change) keeps the epoch, so cached plans keep serving — the common
// point-update workload pays no recompiles.
func TestContentUpdatePreservesCache(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	s := db.Session()
	defer s.Close()

	if _, err := s.Query(namesQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(epochUpdate(1)); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	if _, err := s.Query(namesQuery); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Hits != before.Hits+1 || after.Invalidations != before.Invalidations {
		t.Fatalf("content update disturbed the cache: before %+v after %+v", before, after)
	}
}

// TestConcurrentSessionsShareStmt: N sessions' worth of goroutines share one
// statement while a churner thrashes the shared cache and a writer performs
// content updates. Every execution must agree with the reference answer.
// Run with -race.
func TestConcurrentSessionsShareStmt(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	if _, err := db.Update(epochUpdate(0)); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	stmt, err := s.Prepare(votesQuery)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	const iters = 40
	stop := make(chan struct{})
	errc := make(chan error, readers+2)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				out, err := stmt.QueryContext(context.Background())
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", seed, err)
					return
				}
				for _, it := range out {
					if it.Value != out[0].Value {
						errc <- fmt.Errorf("reader %d: torn epoch %q vs %q", seed, it.Value, out[0].Value)
						return
					}
				}
			}
		}(g)
	}
	// Cache churner: flood the shared cache with distinct single-use entries
	// so the statement's entry is evicted and its held plan must serve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.planCache.Put(fmt.Sprintf("churn-%d", i), plan.Options{DefaultColor: "churn"}, 1, &plan.Compiled{})
		}
	}()
	// Writer: content updates only, so the epoch (and held plans) survive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for e := 1; e <= 10; e++ {
			if _, err := db.Update(epochUpdate(e)); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestWarmPointQueryAllocations pins what a warm cached point query
// allocates, on the 1 500-item catalog: the answer and little else. The
// execution context and its root batch come from the plan's memory pool and
// the shape scan's buffers from a pool of their own, so a one-shot text the
// cache holds costs 4 allocations (6 with the exact-text cache and an
// unpooled context), a text of the same shape with a new literal 6 (a
// compile each before: 47), and a prepared statement 4 (6).
func TestWarmPointQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not counted under the race detector (race_on_test.go)")
	}
	db := catalogDB(1500)
	sess := db.Session()
	defer sess.Close()
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = catalogPoint(3 * i)
	}
	st, err := sess.Prepare(texts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 0
	for _, tc := range []struct {
		name  string
		query func() ([]Item, error)
		max   float64
	}{
		{"one-shot", func() ([]Item, error) { return sess.Query(texts[0]) }, 4},
		{"new literal", func() ([]Item, error) { i++; return sess.Query(texts[i%len(texts)]) }, 6},
		{"statement", st.Query, 4},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if out, err := tc.query(); err != nil || len(out) != 1 {
				t.Fatalf("%s: %d rows, err %v", tc.name, len(out), err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations a query, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
	if cs := db.PlanCacheStats(); cs.Size != 1 || cs.Misses != 1 {
		t.Errorf("plan cache %+v, want the one shape compiled once", cs)
	}
}

// TestWarmOneShotUpdateAllocations pins what a warm one-shot update
// allocates on the 1 500-item catalog, for each of the repository
// benchmark's three update shapes, every text with literals of its own, and
// holds that none of them is parsed: after a shape's first text made its
// template, each of 1 000 more is filled from it (update.ParseCached), so
// the plan cache counts one template hit an update and no template miss.
// A vote costs 117 allocations, a tag-add 144 and a tag-del 147 — bind,
// apply, change log and publish — against 136, 160 and 171 when every text
// was parsed.
func TestWarmOneShotUpdateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not counted under the race detector (race_on_test.go)")
	}
	const items, runs = 1500, 1000
	db := catalogDB(items)
	var vote, add, del int
	for _, tc := range []struct {
		name string
		next func() string
		max  float64
	}{
		{"vote", func() string {
			vote++
			return catalogItem(3*(vote%(items/3))) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(vote) + `" }`
		}, 120},
		{"tag-add", func() string {
			add++
			return catalogItem(add%items) + ` update $i { insert <tag>t` + strconv.Itoa(add) + `</tag> }`
		}, 148},
		{"tag-del", func() string {
			del++
			return catalogItem(del%items) + `, $t in $i/{red}child::tag[. = "t` + strconv.Itoa(del) + `"] update $i { delete $t }`
		}, 150},
	} {
		update := func() {
			if res, err := db.Update(tc.next()); err != nil || res.NodesTouched != 1 {
				t.Fatalf("%s: %+v, err %v", tc.name, res, err)
			}
		}
		update() // the shape's template
		before := db.PlanCacheStats()
		allocs := testing.AllocsPerRun(runs, update)
		after := db.PlanCacheStats()
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations an update, want at most %.0f", tc.name, allocs, tc.max)
		}
		if hits := after.TemplateHits - before.TemplateHits; hits != runs+1 || after.TemplateMisses != before.TemplateMisses {
			t.Errorf("%s: %d of %d one-shot texts filled from the template, %d parsed",
				tc.name, hits, runs+1, after.TemplateMisses-before.TemplateMisses)
		}
	}
}
