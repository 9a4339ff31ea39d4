package storage_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

// fingerprint canonicalizes a store's logical content: every colored tree in
// pre-order with element ids, tags, content, attributes and colors.
func fingerprint(t *testing.T, s *storage.Store) string {
	t.Helper()
	var b strings.Builder
	for _, c := range s.Colors() {
		fmt.Fprintf(&b, "color %s\n", c)
		var walk func(sn storage.SNode, depth int)
		walk = func(sn storage.SNode, depth int) {
			e, err := s.Elem(sn.Elem)
			if err != nil {
				t.Fatalf("Elem(%d): %v", sn.Elem, err)
			}
			attrs := append([][2]string(nil), e.Attrs...)
			sort.Slice(attrs, func(i, j int) bool { return attrs[i][0] < attrs[j][0] })
			colors := s.ColorsOf(sn.Elem)
			fmt.Fprintf(&b, "%s%d %s content=%q attrs=%v colors=%v level=%d\n",
				strings.Repeat(" ", depth), sn.Elem, e.Tag, e.Content, attrs, colors, sn.Level)
			kids, err := s.ChildrenOf(sn)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kids {
				walk(k, depth+1)
			}
		}
		roots, err := s.Roots(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range roots {
			walk(r, 1)
		}
	}
	return b.String()
}

// applyDrained clones base, applies db's drained change log, and compares
// the result with a fresh Load of db.
func applyDrained(t *testing.T, base *storage.Store, db *core.Database) *storage.Store {
	t.Helper()
	changes, overflow := db.DrainChanges()
	if overflow {
		t.Fatal("change log overflowed")
	}
	clone := base.Clone()
	if err := clone.ApplyChanges(changes); err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	fresh, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, clone), fingerprint(t, fresh); got != want {
		t.Fatalf("incrementally maintained store diverges from fresh load:\n--- incremental ---\n%s\n--- fresh ---\n%s", got, want)
	}
	return clone
}

// TestApplyChangesDifferential drives a scripted update sequence through
// clone+ApplyChanges and checks each step against a fresh bulk load.
func TestApplyChangesDifferential(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := m.DB
	base, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges() // discard construction history; base reflects it

	// 1. Content update.
	if err := db.SetText(m.Node("eve-votes"), "140000"); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 2. Leaf insert (new element with text under an existing parent).
	if _, err := db.AddElementText(m.Node("eve"), "runtime", fixtures.Red, "138"); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 3. Attribute set and removal.
	if _, err := db.SetAttribute(m.Node("eve"), "rating", "8.2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetAttribute(m.Node("duck"), "studio", "Paramount"); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)
	db.RemoveAttribute(m.Node("duck"), "studio")
	base = applyDrained(t, base, db)

	// 4. Next-color attach of an already-stored element.
	if err := db.Adopt(m.Node("y1957"), m.Node("duck"), fixtures.Green); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 5. Subtree delete.
	if err := db.DeleteSubtree(m.Node("hot-role"), fixtures.Red); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 6. Detach (element leaves one colored tree, stays in others).
	if err := db.Detach(m.Node("duck"), fixtures.Green); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 7. New database color plus a root-level insert in it.
	db.AddDatabaseColor("yellow")
	n, err := db.NewElement("topic", "yellow")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(db.Document(), n, "yellow"); err != nil {
		t.Fatal(err)
	}
	base = applyDrained(t, base, db)

	// 8. A batch of mixed updates drained at once.
	if err := db.SetText(m.Node("hot-votes"), "12"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetAttribute(m.Node("hot"), "year", "1959"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(n, "name", "yellow", "classics"); err != nil {
		t.Fatal(err)
	}
	applyDrained(t, base, db)
}

// TestApplyChangesComplexFallsBack: changes without an incremental
// counterpart surface ErrDeltaUnsupported.
func TestApplyChangesComplexFallsBack(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := m.DB
	base, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges()

	// Rename re-keys the tag index: no incremental op.
	if err := db.Rename(m.Node("eve"), "film"); err != nil {
		t.Fatal(err)
	}
	changes, overflow := db.DrainChanges()
	if overflow {
		t.Fatal("unexpected overflow")
	}
	clone := base.Clone()
	if err := clone.ApplyChanges(changes); !errors.Is(err, storage.ErrDeltaUnsupported) {
		t.Fatalf("ApplyChanges = %v, want ErrDeltaUnsupported", err)
	}
}

// TestCloneLeavesSnapshotIntact: applying changes to a clone never mutates
// the frozen base snapshot.
func TestCloneLeavesSnapshotIntact(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := m.DB
	base, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges()
	before := fingerprint(t, base)

	if err := db.SetText(m.Node("eve-votes"), "999"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(m.Node("eve"), "tagline", fixtures.Red, "fasten your seatbelts"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteSubtree(m.Node("drama"), fixtures.Red); err != nil {
		t.Fatal(err)
	}
	changes, _ := db.DrainChanges()
	clone := base.Clone()
	if err := clone.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	if after := fingerprint(t, base); after != before {
		t.Fatalf("frozen snapshot changed:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

// TestCloneCostIsSizeIndependent: a clone shares the location tables, the
// indexes and the page images, so it allocates the same few headers whatever
// the store holds.
func TestCloneCostIsSizeIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-item store")
	}
	var allocs []float64
	for _, items := range []int{1500, 20000} {
		st, err := storage.Load(fixtures.NewCatalog(items).DB, 0)
		if err != nil {
			t.Fatal(err)
		}
		st.Clone() // ends the load's generation, once
		allocs = append(allocs, testing.AllocsPerRun(50, func() { st.Clone() }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Clone allocates %v objects at 1 500 items and %v at 20 000", allocs[0], allocs[1])
	}
}

// TestParentWritesStayOutOfClone is the other direction of
// TestCloneLeavesSnapshotIntact: changes applied to the store a clone was
// taken from (content, a relocated record, an insert, a delete) never show
// in the clone.
func TestParentWritesStayOutOfClone(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := m.DB
	parent, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges()
	clone := parent.Clone()
	before := fingerprint(t, clone)

	if err := db.SetText(m.Node("eve-votes"), "a much longer text than the record has room for"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(m.Node("eve"), "tagline", fixtures.Red, "fasten your seatbelts"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteSubtree(m.Node("drama"), fixtures.Red); err != nil {
		t.Fatal(err)
	}
	changes, _ := db.DrainChanges()
	if err := parent.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	if after := fingerprint(t, clone); after != before {
		t.Fatalf("clone changed under its parent's writes:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	fresh, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, parent), fingerprint(t, fresh); got != want {
		t.Fatalf("parent diverges from a fresh load:\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestReplacedTextDoesNotRelocate: core logs a text replacement as the old
// text's removal followed by the new text. Applied one by one the first would
// shrink the element record and the second relocate it, growing the element
// file by a record per update; the pair applies as the one change it is.
func TestReplacedTextDoesNotRelocate(t *testing.T) {
	c := fixtures.NewCatalog(30)
	db, votes := c.DB, c.Votes
	st, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, err := st.DataBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.SetText(votes[i%len(votes)], fmt.Sprint(50+i%9)); err != nil {
			t.Fatal(err)
		}
		st = applyDrained(t, st, db)
	}
	if grown, err := st.DataBytes(); err != nil || grown != size {
		t.Fatalf("data files grew from %d to %d bytes under same-length text replacements (err %v)", size, grown, err)
	}
}
