package storage_test

import (
	"fmt"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
)

// Scaling of structural inserts, by the stores' own counters — pages copied
// and records relabelled — not by clocks.

// populateLog is the change log of the repository benchmark's populate, one
// batch per facade statement, as a durable database's WAL holds it.
func populateLog(t *testing.T, items int) (db *core.Database, log [][]core.Change) {
	t.Helper()
	db = core.NewDatabase("red", "green")
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		changes, overflow := db.DrainChanges()
		if overflow {
			t.Fatal("change log overflowed")
		}
		log = append(log, changes)
	}
	elem := func(n *core.Node, err error) *core.Node {
		step(err)
		return n
	}
	catalog := elem(db.AddElement(db.Document(), "catalog", "red"))
	featured := elem(db.AddElement(db.Document(), "featured", "green"))
	for k := 0; k < items; k++ {
		item := elem(db.AddElement(catalog, "item", "red"))
		elem(db.AddElementText(item, "name", "red", fmt.Sprint("Item ", k)))
		if k%3 == 0 {
			step(db.Adopt(featured, item, "green"))
			elem(db.AddElementText(item, "votes", "green", fmt.Sprint(k%50)))
		}
	}
	return db, log
}

// TestReplayIsLinear: replaying the populate's log — appends only, the shape
// of a feed and of recovery — relabels nothing, and copies a number of pages
// and makes a number of index probes per insert that do not grow with the
// store. Each batch is applied to a fresh clone, as a commit's snapshot
// refresh does; its appends go into the tail pages it shares in place, so
// only a batch that overwrites a record copies a page image. Page reads are
// not counted (a read is an image lookup), so reads that bypass the indexes
// — a file scan per insert, say — are not bounded here.
func TestReplayIsLinear(t *testing.T) {
	counter := func(name string) uint64 { return obs.Default.Snapshot().Counters[name] }
	var perInsert, probesPerInsert []float64
	for _, items := range []int{500, 1000, 2000} {
		db, log := populateLog(t, items)
		_, relabels0, _ := numbering()
		copied0, probes0 := counter("pagestore_pages_copied_total"), counter("storage_index_probes_total")
		st := storage.NewStore("red", "green")
		for _, changes := range log {
			st = st.Clone()
			if err := st.ApplyChanges(changes); err != nil {
				t.Fatal(err)
			}
		}
		if _, relabels, _ := numbering(); relabels != relabels0 {
			t.Fatalf("%d items: replaying appends relabelled %d runs", items, relabels-relabels0)
		}
		inserts := float64(st.Counts().StructNodes)
		perInsert = append(perInsert, float64(counter("pagestore_pages_copied_total")-copied0)/inserts)
		probesPerInsert = append(probesPerInsert, float64(counter("storage_index_probes_total")-probes0)/inserts)
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		want, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if items == 500 && describe(t, st) != describe(t, want) {
			t.Fatal("the replayed store does not answer like a Load of the same state")
		}
	}
	t.Logf("pages copied per structural insert at 500, 1000, 2000 items: %.2f", perInsert)
	t.Logf("index probes per structural insert at 500, 1000, 2000 items: %.2f", probesPerInsert)
	for i, n := range perInsert {
		if n > 0.1 || n > perInsert[0]+0.5 {
			t.Fatalf("pages copied per structural insert grow with the store: %.2f", perInsert)
		}
		if p := probesPerInsert[i]; p > 3 || p > probesPerInsert[0]+0.5 {
			t.Fatalf("index probes per structural insert grow with the store: %.2f", probesPerInsert)
		}
	}
}

// TestHotParentRelabelsLocally: 120 leaves in a row under one item in the
// middle of a bulk-loaded 20 000-item catalog. The item fills, its end grows
// into the gap before the next item, then runs of its siblings are relabelled:
// a few hundred records in all, of the tree's 40 001, and the store answers
// like a Load of the same state.
func TestHotParentRelabelsLocally(t *testing.T) {
	c := fixtures.NewCatalog(20000)
	st, err := storage.Load(c.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, relabelled0 := numbering()
	hot := c.Items[10000]
	for i := 0; i < 120; i++ {
		if _, err := c.DB.AddElementText(hot, "tag", "red", fmt.Sprint("t", i)); err != nil {
			t.Fatal(err)
		}
		changes, _ := c.DB.DrainChanges()
		if err := st.ApplyChanges(changes); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	_, _, relabelled := numbering()
	t.Logf("120 inserts under one mid-catalog item relabelled %d records", relabelled-relabelled0)
	if relabelled == relabelled0 || relabelled-relabelled0 > 120*64 {
		t.Fatalf("120 inserts under one item relabelled %d records, want some and at most %d", relabelled-relabelled0, 120*64)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want, err := storage.Load(c.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := func(s *storage.Store) string {
		doc, _ := s.Document("red")
		all, err := s.Subtree(doc)
		if err != nil {
			t.Fatal(err)
		}
		tags, err := s.ScanTag("red", "tag")
		if err != nil {
			t.Fatal(err)
		}
		item, _, err := s.StructOf(storage.ElemID(hot.ID()), "red")
		if err != nil {
			t.Fatal(err)
		}
		kids, err := s.ChildrenOf(item)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]storage.ElemID, 0, len(all)+len(tags)+len(kids))
		for _, list := range [][]storage.SNode{all, tags, kids} {
			for _, sn := range list {
				out = append(out, sn.Elem)
			}
		}
		return fmt.Sprint(out)
	}
	if order(st) != order(want) {
		t.Fatal("after 120 inserts under one item the store's order differs from a Load of the same state")
	}
}

// TestCommitCopiesOnlyOverwrittenPages: on the benchmark's 1 500-item
// catalog, a vote (one element record overwritten), a tag-add (an element
// record and a structural record appended) and a tag-del (both tombstoned),
// each applied to a fresh clone as a commit is, copy one page image between
// them: the vote's. Appends write into the tail page the clone shares, and a
// tombstone is a bit in the clone's own page header.
func TestCommitCopiesOnlyOverwrittenPages(t *testing.T) {
	c := fixtures.NewCatalog(1500)
	st, err := storage.Load(c.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		changes, _ := c.DB.DrainChanges()
		st = st.Clone()
		if err := st.ApplyChanges(changes); err != nil {
			t.Fatal(err)
		}
	}
	copies := func() uint64 { return obs.Default.Snapshot().Counters["pagestore_pages_copied_total"] }
	const rounds = 20
	copied := copies()
	for i := 0; i < rounds; i++ {
		commit(c.DB.SetText(c.Votes[(7*i)%len(c.Votes)], fmt.Sprint(i%50)))
		tag, err := c.DB.AddElementText(c.Items[(11*i)%len(c.Items)], "tag", fixtures.Red, fmt.Sprint("t", i))
		commit(err)
		commit(c.DB.DeleteSubtree(tag, fixtures.Red))
	}
	n := copies() - copied
	t.Logf("page images copied by %d vote + tag-add + tag-del rounds: %d", rounds, n)
	if n > rounds {
		t.Fatalf("%d vote + tag-add + tag-del rounds copied %d page images; want at most one a round", rounds, n)
	}
	want, err := storage.Load(c.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if describe(t, st) != describe(t, want) {
		t.Fatal("the committed store does not answer like a Load of the same state")
	}
}
