package colorful

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
)

const votesQuery = `for $m in document("db")/{green}descendant::movie return $m/{green}child::votes`

// epochUpdate rewrites every green votes counter to the same epoch marker in
// ONE update statement, so any statement-boundary-consistent view shows all
// counters equal.
func epochUpdate(e int) string {
	return fmt.Sprintf(`
for $m in document("db")/{green}descendant::movie,
    $v in $m/{green}child::votes
update $m { replace $v with "epoch%d" }`, e)
}

// TestConcurrentReadersWriterStress runs 8 readers against a writer that
// flips all vote counters between epochs, one update statement per flip.
// Readers must always observe a consistent epoch — every votes value equal —
// whether the pre- or post-state of any in-flight update, never a torn mix.
// Run under -race this also checks the locking discipline of the facade.
func TestConcurrentReadersWriterStress(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	if _, err := db.Update(epochUpdate(0)); err != nil {
		t.Fatal(err)
	}

	// A mix of Table 2-style read queries: compiled structural navigation,
	// cross-color transition, content predicate, and an order-by that runs on
	// the evaluator (exercising the shared-lock fallback path).
	sideQueries := []string{
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`,
		`for $m in document("db")/{red}descendant::movie return $m/{green}child::votes`,
		`document("db")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name`,
		`for $m in document("db")/{red}descendant::movie
		 order by $m/{red}child::name return $m/{red}child::name`,
	}

	const readers = 8
	const epochs = 30
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				out, err := db.Query(votesQuery)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", seed, err)
					return
				}
				if len(out) == 0 {
					errc <- fmt.Errorf("reader %d: votes query returned nothing", seed)
					return
				}
				for _, it := range out {
					if it.Value != out[0].Value {
						errc <- fmt.Errorf("reader %d: torn epoch: %q vs %q",
							seed, it.Value, out[0].Value)
						return
					}
				}
				if _, err := db.Query(sideQueries[(seed+n)%len(sideQueries)]); err != nil {
					errc <- fmt.Errorf("reader %d side query: %v", seed, err)
					return
				}
			}
		}(i)
	}

	go func() {
		defer close(stop)
		for e := 1; e <= epochs; e++ {
			if _, err := db.Update(epochUpdate(e)); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			// Interleave direct mutators through the locked wrappers too.
			if _, err := db.SetAttribute(m.Node("eve"), "epoch", fmt.Sprint(e)); err != nil {
				errc <- fmt.Errorf("writer attr: %v", err)
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
	// Final state: the last epoch everywhere.
	out, err := db.Query(votesQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range out {
		if want := fmt.Sprintf("epoch%d", epochs); it.Value != want {
			t.Fatalf("final votes = %q, want %q", it.Value, want)
		}
	}
}

// TestConcurrentFacadeWritersNeverFallBack: 8 reader sessions run only
// compilable queries while one writer commits facade mutators, each of which
// leaves the snapshot stale for the next reader to maintain. However many
// readers find it stale at once, every query stays on the compiled route:
// the maintainers queue on the writer lock, the first refreshes and the rest
// find the snapshot current. The writer reads back each of its own writes,
// and the maintenance stays incremental throughout.
func TestConcurrentFacadeWritersNeverFallBack(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	rebuilds := db.MaintStats().FullRebuilds

	const eveVotes = `document("db")/{green}descendant::movie[{green}child::name = "All About Eve"]/{green}child::votes`
	const eveEpoch = `document("db")/{red}descendant::movie[{red}child::name = "All About Eve"]/{red}attribute::epoch`
	queries := []string{
		eveVotes,
		votesQuery,
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`,
		`document("db")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name`,
	}
	for _, q := range append(queries, eveEpoch) {
		if _, err := db.Explain(q); err != nil {
			t.Fatalf("%s does not compile: %v", q, err)
		}
	}

	const readers = 8
	const writes = 200
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	sessions := make([]*Session, readers)
	for i := range sessions {
		sessions[i] = db.Session()
		defer sessions[i].Close()
		wg.Add(1)
		go func(id int, s *Session) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(id+n)%len(queries)]
				out, err := s.Query(q)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %s: %v", id, q, err)
					return
				}
				if q == eveVotes && len(out) != 1 {
					errc <- fmt.Errorf("reader %d: %d votes for one movie", id, len(out))
					return
				}
			}
		}(i, sessions[i])
	}

	go func() {
		defer close(stop)
		readBack := func(q, want string) error {
			out, err := db.Query(q)
			if err != nil || len(out) != 1 || out[0].Value != want {
				return fmt.Errorf("writer reads %s: %+v, %v; want %q", q, out, err, want)
			}
			return nil
		}
		for e := 1; e <= writes; e++ {
			v := fmt.Sprint(e)
			if err := db.SetText(m.Node("eve-votes"), v); err != nil {
				errc <- fmt.Errorf("writer SetText: %v", err)
				return
			}
			if err := readBack(eveVotes, v); err != nil {
				errc <- err
				return
			}
			if _, err := db.SetAttribute(m.Node("eve"), "epoch", v); err != nil {
				errc <- fmt.Errorf("writer SetAttribute: %v", err)
				return
			}
			if err := readBack(eveEpoch, v); err != nil {
				errc <- err
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
	for i, s := range sessions {
		if st := s.Stats(); st.Fallbacks != 0 || st.Queries == 0 {
			t.Errorf("reader %d: %d of %d queries fell back to the evaluator", i, st.Fallbacks, st.Queries)
		}
	}
	if got := db.MaintStats().FullRebuilds; got != rebuilds {
		t.Errorf("facade writes forced %d full rebuilds", got-rebuilds)
	}
}

// snapshotEpoch reads every green votes counter straight from a store
// snapshot and returns the one epoch they all carry.
func snapshotEpoch(sp *snapshot) (int, error) {
	nodes, err := sp.st.ScanTag("green", "votes")
	if err != nil {
		return 0, err
	}
	if len(nodes) == 0 {
		return 0, fmt.Errorf("snapshot gen %d has no votes", sp.gen)
	}
	epoch := -1
	for _, sn := range nodes {
		content, err := sp.st.ContentOf(sn.Elem)
		if err != nil {
			return 0, err
		}
		var e int
		if _, err := fmt.Sscanf(content, "epoch%d", &e); err != nil {
			return 0, fmt.Errorf("votes content %q: %v", content, err)
		}
		if epoch >= 0 && e != epoch {
			return 0, fmt.Errorf("snapshot gen %d is torn: epochs %d and %d", sp.gen, epoch, e)
		}
		epoch = e
	}
	return epoch, nil
}

// TestHeldSnapshotsSurviveCommits: 8 readers hold on to published snapshots
// while the writer commits 1 000 updates, each of which clones the latest
// snapshot (sharing its location tables, index nodes and page images) and
// publishes the clone. A held snapshot keeps showing the one
// statement-boundary state it was published for, however many generations
// are cloned off it and written; half the readers never let go of the first
// one. Every query in between sees one epoch, and epochs never run backwards
// for a reader. Meaningful under -race.
func TestHeldSnapshotsSurviveCommits(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	if _, err := db.Update(epochUpdate(0)); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const commits = 1000
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errc <- fmt.Errorf("reader %d: %s", id, fmt.Sprintf(format, args...))
			}
			held := db.snap.Load()
			heldEpoch, err := snapshotEpoch(held)
			if err != nil {
				fail("%v", err)
				return
			}
			seen := heldEpoch
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if id%2 == 1 && n%8 == 0 {
					held = db.snap.Load()
					if heldEpoch, err = snapshotEpoch(held); err != nil {
						fail("%v", err)
						return
					}
				} else if e, err := snapshotEpoch(held); err != nil || e != heldEpoch {
					fail("held snapshot gen %d moved from epoch %d to %d (%v)", held.gen, heldEpoch, e, err)
					return
				}
				out, err := db.Query(votesQuery)
				if err != nil || len(out) == 0 {
					fail("votes query: %d rows, %v", len(out), err)
					return
				}
				var e int
				fmt.Sscanf(out[0].Value, "epoch%d", &e)
				for _, it := range out {
					if it.Value != out[0].Value {
						fail("torn epoch: %q vs %q", it.Value, out[0].Value)
						return
					}
				}
				if e < seen {
					fail("epoch ran backwards: %d after %d", e, seen)
					return
				}
				seen = e
			}
		}(i)
	}
	go func() {
		defer close(stop)
		for e := 1; e <= commits; e++ {
			if res, err := db.Update(epochUpdate(e)); err != nil || res.Tuples != 3 {
				errc <- fmt.Errorf("writer: commit %d: %+v, %v", e, res, err)
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
	if e, err := snapshotEpoch(db.snap.Load()); err != nil || e != commits {
		t.Fatalf("published snapshot is at epoch %d, want %d (%v)", e, commits, err)
	}
	if st := db.MaintStats(); st.FullRebuilds != 1 {
		t.Fatalf("commits fell back to full rebuilds: %+v", st)
	}
}

// evaluatorSet answers a query on the raw evaluator and returns the distinct
// value set, the reference for differential checks.
func evaluatorSet(t *testing.T, db *DB, q string) map[string]bool {
	t.Helper()
	seq, err := mcxquery.NewEvaluator(db.Database).Query(q)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	set := map[string]bool{}
	for _, it := range seq {
		set[pathexpr.ItemString(it)] = true
	}
	return set
}

func querySet(t *testing.T, db *DB, q string) map[string]bool {
	t.Helper()
	out, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, it := range out {
		set[it.Value] = true
	}
	return set
}

func setString(s map[string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestIncrementalMaintenanceServesUpdates: point updates between compiled
// queries are folded into the snapshot by change-log replay — the full-load
// counter stays at the initial build — and after every update the maintained
// snapshot answers the workload queries exactly like the evaluator on the
// live database.
func TestIncrementalMaintenanceServesUpdates(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := wrap(m.DB)
	workload := []string{
		votesQuery,
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`,
		`document("db")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name`,
	}

	check := func(step string) {
		t.Helper()
		for _, q := range workload {
			got, want := querySet(t, db, q), evaluatorSet(t, db, q)
			if setString(got) != setString(want) {
				t.Fatalf("%s: query %s\nmaintained snapshot: %v\nevaluator: %v",
					step, q, setString(got), setString(want))
			}
		}
	}

	check("initial")
	if got := db.MaintStats(); got.FullRebuilds != 1 {
		t.Fatalf("initial build: %+v, want exactly one full rebuild", got)
	}

	updates := []string{
		`for $m in document("db")/{green}descendant::movie,
		     $v in $m/{green}child::votes
		 where $v < 10 update $m { replace $v with "90" }`,
		`for $a in document("db")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
		 update $a { insert <birthDate>1908-04-05</birthDate> }`,
		`for $y in document("db")/{green}descendant::year,
		     $m in $y/{green}child::movie[contains({green}child::name, "Eve")]
		 update $y { delete $m }`,
		epochUpdate(7),
	}
	for i, u := range updates {
		if _, err := db.Update(u); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		check(fmt.Sprintf("after update %d", i))
	}

	st := db.MaintStats()
	if st.FullRebuilds != 1 {
		t.Fatalf("maintenance fell back to full rebuilds: %+v", st)
	}
	if st.IncrementalApplies < uint64(len(updates)) {
		t.Fatalf("expected >= %d incremental applies: %+v", len(updates), st)
	}
}
