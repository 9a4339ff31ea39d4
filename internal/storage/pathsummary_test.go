package storage_test

import (
	"fmt"
	"sync"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// summaryStore: <shop> with n <item> children, each holding a <name> leaf,
// plus one <name> directly under the root (a second distinct path).
func summaryStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	db := core.NewDatabase("red")
	root, err := db.AddElement(db.Document(), "shop", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(root, "name", "red", "the shop"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		item, err := db.AddElement(root, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(item, "name", "red", fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func steps(spec ...storage.PathStep) []storage.PathStep { return spec }

func TestPathSummaryCounts(t *testing.T) {
	s := summaryStore(t, 8)
	ps, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pat  []storage.PathStep
		want int
	}{
		// //name matches both the shop-level and the item-level names.
		{steps(storage.PathStep{Tag: "name", Desc: true}), 9},
		// //item/name matches only item-level names.
		{steps(storage.PathStep{Tag: "item", Desc: true}, storage.PathStep{Tag: "name"}), 8},
		// //shop/name requires name as a direct child of shop.
		{steps(storage.PathStep{Tag: "shop", Desc: true}, storage.PathStep{Tag: "name"}), 1},
		// //shop//name reaches both depths.
		{steps(storage.PathStep{Tag: "shop", Desc: true}, storage.PathStep{Tag: "name", Desc: true}), 9},
		// /name: no root element is a name.
		{steps(storage.PathStep{Tag: "name"}), 0},
		// /shop: the root element.
		{steps(storage.PathStep{Tag: "shop"}), 1},
	} {
		if got := ps.Count(tc.pat); got != tc.want {
			t.Errorf("Count(%s) = %d, want %d", storage.PathString(tc.pat), got, tc.want)
		}
		got := 0
		for _, run := range ps.Match(tc.pat) {
			got += len(run)
		}
		if got != tc.want {
			t.Errorf("Match(%s) holds %d refs, want %d", storage.PathString(tc.pat), got, tc.want)
		}
	}
}

func TestPathSummaryCacheAndInvalidation(t *testing.T) {
	s := summaryStore(t, 4)
	ps1, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if ps1 != ps2 {
		t.Fatal("second probe should hit the cache")
	}

	// Content updates preserve every label path: cache survives.
	items, err := s.ScanTag("red", "name")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateContent(items[0].Elem, "renamed"); err != nil {
		t.Fatal(err)
	}
	ps3, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if ps3 != ps1 {
		t.Fatal("content update should not invalidate the path summary")
	}

	// Structural deletion rebuilds with updated counts.
	nodes, err := s.ScanTag("red", "item")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSubtree(nodes[0]); err != nil {
		t.Fatal(err)
	}
	ps4, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if ps4 == ps1 {
		t.Fatal("structural deletion must invalidate the path summary")
	}
	pat := steps(storage.PathStep{Tag: "item", Desc: true}, storage.PathStep{Tag: "name"})
	if got := ps4.Count(pat); got != 3 {
		t.Fatalf("post-delete Count(//item/name) = %d, want 3", got)
	}
}

func TestPathSummarySharedWithClone(t *testing.T) {
	s := summaryStore(t, 4)
	ps1, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	psc, err := c.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if psc != ps1 {
		t.Fatal("clone should share the immutable cached summary")
	}
	// A structural mutation in the clone invalidates only the clone's cache.
	nodes, err := c.ScanTag("red", "item")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSubtree(nodes[0]); err != nil {
		t.Fatal(err)
	}
	psp, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if psp != ps1 {
		t.Fatal("parent cache must survive a clone's mutation")
	}
}

// TestPathSummaryConcurrentProbes: readers of a frozen snapshot build and
// share its summary with no lock while a writer clones it and makes
// structural changes to each clone. Meant for -race.
func TestPathSummaryConcurrentProbes(t *testing.T) {
	s := summaryStore(t, 8)
	pat := steps(storage.PathStep{Tag: "item", Desc: true}, storage.PathStep{Tag: "name"})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ps, err := s.PathSummary("red")
				if err == nil && ps.Count(pat) != 8 {
					err = fmt.Errorf("snapshot Count(//item/name) = %d, want 8", ps.Count(pat))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		c := s.Clone()
		nodes, err := c.ScanTag("red", "item")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DeleteSubtree(nodes[0]); err != nil {
			t.Fatal(err)
		}
		ps, err := c.PathSummary("red")
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.Count(pat); got != 7 {
			t.Fatalf("clone Count(//item/name) = %d, want 7", got)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPathSummaryUnknownColor(t *testing.T) {
	s := summaryStore(t, 2)
	ps, err := s.PathSummary("blue")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Count(steps(storage.PathStep{Tag: "shop", Desc: true})) != 0 {
		t.Fatal("unknown color should yield an empty summary")
	}
}

// TestPathSummaryNests: the summary knows which tags have an element below
// another of the same tag, and a structural insert that nests one is seen by
// the rebuilt summary, not by the one already handed out.
func TestPathSummaryNests(t *testing.T) {
	s := summaryStore(t, 3)
	ps1, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"shop", "item", "name", "absent"} {
		if ps1.Nests(tag) {
			t.Errorf("Nests(%s) on a store where nothing nests", tag)
		}
	}
	items, err := s.ScanTag("red", "item")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertLeaf(s, items[1], "item", "inner"); err != nil {
		t.Fatal(err)
	}
	ps2, err := s.PathSummary("red")
	if err != nil {
		t.Fatal(err)
	}
	if !ps2.Nests("item") || ps2.Nests("name") || ps2.Nests("shop") {
		t.Errorf("after an item under an item: Nests(item, name, shop) = %v, %v, %v, want true, false, false",
			ps2.Nests("item"), ps2.Nests("name"), ps2.Nests("shop"))
	}
	if ps1.Nests("item") {
		t.Error("a summary already handed out changed")
	}
}
