package colorful

import (
	"context"
	"errors"
	"fmt"
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
// the plan cache, mutate the structure (which moves the stats epoch), and
// check the next execution against the reference evaluator on the live
// database — a stale cached plan over the old structure would return the
// old result set. The cache must report the invalidation.
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
	before := db.PlanCacheStats()
	for _, q := range queries {
		got := sessionSet(t, s, q)
		want := evaluatorSet(t, db, q)
		if setString(got) != setString(want) {
			t.Fatalf("after insert, %q: cached path %s, evaluator %s", q, setString(got), setString(want))
		}
	}
	after := db.PlanCacheStats()
	if after.Invalidations == before.Invalidations {
		t.Fatalf("structural mutation produced no cache invalidation: before %+v after %+v", before, after)
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
