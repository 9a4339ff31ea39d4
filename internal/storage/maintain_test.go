package storage_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

// fingerprint canonicalizes a store's logical content: the tree of every
// color in colors, in pre-order with element ids, tags, content, attributes
// and colors.
func fingerprint(t *testing.T, s *storage.Store, colors []core.Color) string {
	t.Helper()
	var b strings.Builder
	for _, c := range colors {
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
	changes := db.DrainChanges()
	clone := base.Clone()
	if err := clone.ApplyChanges(changes); err != nil {
		t.Fatalf("ApplyChanges: %v", err)
	}
	fresh, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, clone, db.Colors()), fingerprint(t, fresh, db.Colors()); got != want {
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

// TestApplyChangesRenameIsIncremental: an element rename is its record
// rewritten under the new tag. The renamed element (red and green, with
// element children in both) moves its tag and content postings and its
// children's count in each color, so the store answers like a fresh Load —
// LeafTag included — and the stats epoch moves. An attribute change after it
// carries no tag and leaves the new one alone.
func TestApplyChangesRenameIsIncremental(t *testing.T) {
	m := fixtures.NewMovieDB()
	db := m.DB
	base, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges()
	eve := storage.ElemID(m.Node("eve").ID())
	for _, c := range []core.Color{fixtures.Red, fixtures.Green} {
		if !base.LeafTag(c, "film") {
			t.Fatalf("%s: a tag nothing carries is not a leaf", c)
		}
	}

	if err := db.Rename(m.Node("eve"), "film"); err != nil {
		t.Fatal(err)
	}
	epoch := base.StatsEpoch()
	renamed := applyDrained(t, base, db)
	if renamed.StatsEpoch() == epoch {
		t.Error("the rename kept the stats epoch")
	}
	fresh, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(t, renamed, db.Colors()), describe(t, fresh, db.Colors()); got != want {
		t.Fatalf("after the rename the store answers\n%s\na fresh Load\n%s", got, want)
	}
	for _, c := range []core.Color{fixtures.Red, fixtures.Green} {
		if renamed.LeafTag(c, "film") {
			t.Errorf("%s: film has element children but is a leaf tag", c)
		}
		if films, err := renamed.ScanTag(c, "film"); err != nil || len(films) != 1 || films[0].Elem != eve {
			t.Errorf("%s: ScanTag(film) = %v, %v", c, films, err)
		}
	}

	if _, err := db.SetAttribute(m.Node("eve"), "rating", "8.2"); err != nil {
		t.Fatal(err)
	}
	changes := db.DrainChanges()
	if len(changes) != 1 || changes[0].Kind != core.ChangeAttrs || changes[0].Tag != "" {
		t.Fatalf("an attribute set logged %+v, want one ChangeAttrs without a tag", changes)
	}
	after := renamed.Clone()
	if err := after.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	if e, err := after.Elem(eve); err != nil || e.Tag != "film" || len(e.Attrs) != 1 {
		t.Fatalf("after an attribute change without a tag: Elem = %+v, %v", e, err)
	}
	if films, err := after.ScanTag(fixtures.Red, "film"); err != nil || len(films) != 1 {
		t.Fatalf("after an attribute change without a tag: ScanTag(film) = %v, %v", films, err)
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
	before := fingerprint(t, base, db.Colors())

	if err := db.SetText(m.Node("eve-votes"), "999"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(m.Node("eve"), "tagline", fixtures.Red, "fasten your seatbelts"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteSubtree(m.Node("drama"), fixtures.Red); err != nil {
		t.Fatal(err)
	}
	changes := db.DrainChanges()
	clone := base.Clone()
	if err := clone.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	if after := fingerprint(t, base, db.Colors()); after != before {
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
	before := fingerprint(t, clone, db.Colors())

	if err := db.SetText(m.Node("eve-votes"), "a much longer text than the record has room for"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(m.Node("eve"), "tagline", fixtures.Red, "fasten your seatbelts"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteSubtree(m.Node("drama"), fixtures.Red); err != nil {
		t.Fatal(err)
	}
	changes := db.DrainChanges()
	if err := parent.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	if after := fingerprint(t, clone, db.Colors()); after != before {
		t.Fatalf("clone changed under its parent's writes:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	fresh, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, parent, db.Colors()), fingerprint(t, fresh, db.Colors()); got != want {
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
