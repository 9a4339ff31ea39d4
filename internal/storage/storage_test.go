package storage_test

import (
	"sort"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

func load(t *testing.T) (*fixtures.MovieDB, *storage.Store) {
	t.Helper()
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestLoadCounts(t *testing.T) {
	m, s := load(t)
	want := m.DB.ComputeStats()
	got := s.Counts()
	if got.Elements != want.Elements {
		t.Fatalf("elements = %d, want %d", got.Elements, want.Elements)
	}
	if got.StructNodes != want.StructuralNodes {
		t.Fatalf("struct nodes = %d, want %d", got.StructNodes, want.StructuralNodes)
	}
	if got.ContentNodes == 0 {
		t.Fatal("content nodes = 0")
	}
	db, err := s.DataBytes()
	if err != nil || db <= 0 {
		t.Fatalf("data bytes = %d, %v", db, err)
	}
	if s.IndexBytes() <= 0 {
		t.Fatal("index bytes = 0")
	}
}

func TestScanTagIsStartOrdered(t *testing.T) {
	_, s := load(t)
	for _, c := range s.Colors() {
		for _, tag := range []string{"movie", "name", "movie-genre", "actor"} {
			nodes, err := s.ScanTag(c, tag)
			if err != nil {
				t.Fatal(err)
			}
			if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i].Start < nodes[j].Start }) {
				t.Fatalf("ScanTag(%s, %s) not start ordered", c, tag)
			}
		}
	}
	movies, _ := s.ScanTag("red", "movie")
	if len(movies) != 4 {
		t.Fatalf("red movies = %d, want 4", len(movies))
	}
	greenMovies, _ := s.ScanTag("green", "movie")
	if len(greenMovies) != 3 {
		t.Fatalf("green movies = %d, want 3", len(greenMovies))
	}
	if s.CountTag("blue", "actor") != 4 {
		t.Fatalf("blue actors = %d", s.CountTag("blue", "actor"))
	}
}

func TestIntervalInvariants(t *testing.T) {
	_, s := load(t)
	for _, c := range s.Colors() {
		all := map[string][]storage.SNode{}
		for _, tag := range []string{"movie", "movie-genre", "movie-genres", "name", "votes", "actor", "actors", "movie-role", "movie-award", "movie-awards", "year"} {
			ns, err := s.ScanTag(c, tag)
			if err != nil {
				t.Fatal(err)
			}
			all[tag] = ns
		}
		// Genre contains its movies (red).
		if c == "red" {
			for _, mv := range all["movie"] {
				found := false
				for _, g := range all["movie-genre"] {
					if g.Contains(mv) {
						found = true
					}
				}
				if !found {
					t.Fatalf("movie %v not contained in any red genre", mv)
				}
			}
		}
		// Intervals nest or are disjoint, never partially overlap.
		var flat []storage.SNode
		for _, ns := range all {
			flat = append(flat, ns...)
		}
		for i := range flat {
			for j := range flat {
				a, b := flat[i], flat[j]
				if a.Start >= b.Start || a.Color != b.Color {
					continue
				}
				if b.Start < a.End && b.End > a.End {
					t.Fatalf("partial overlap: %+v vs %+v", a, b)
				}
			}
		}
	}
}

func TestElemAndContent(t *testing.T) {
	m, s := load(t)
	eveName := storage.ElemID(m.Node("eve-name").ID())
	e, err := s.Elem(eveName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tag != "name" || e.Content != "All About Eve" {
		t.Fatalf("elem = %+v", e)
	}
	content, err := s.ContentOf(eveName)
	if err != nil || content != "All About Eve" {
		t.Fatalf("content = %q, %v", content, err)
	}
	if _, err := s.Elem(99999); err == nil {
		t.Fatal("missing element should fail")
	}
}

func TestEqContentIndex(t *testing.T) {
	_, s := load(t)
	hits, err := s.EqContent("red", "name", "Comedy")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("EqContent = %d hits", len(hits))
	}
	none, _ := s.EqContent("red", "name", "Nonexistent")
	if len(none) != 0 {
		t.Fatal("expected no hits")
	}
}

func TestAttrIndex(t *testing.T) {
	m := fixtures.NewMovieDB()
	if _, err := m.DB.SetAttribute(m.Node("eve"), "id", "m1"); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := s.EqAttr("id", "m1")
	if len(ids) != 1 || ids[0] != storage.ElemID(m.Node("eve").ID()) {
		t.Fatalf("EqAttr = %v", ids)
	}
}

func TestCrossTreeJoin(t *testing.T) {
	m, s := load(t)
	eve := storage.ElemID(m.Node("eve").ID())
	// eve participates in red and green.
	red, ok, err := s.CrossTree(eve, "red")
	if err != nil || !ok {
		t.Fatalf("red cross: %v %v", ok, err)
	}
	green, ok, err := s.CrossTree(eve, "green")
	if err != nil || !ok {
		t.Fatalf("green cross: %v %v", ok, err)
	}
	if red.Color != "red" || green.Color != "green" || red.Elem != green.Elem {
		t.Fatalf("cross results: %+v %+v", red, green)
	}
	if _, ok, _ := s.CrossTree(eve, "blue"); ok {
		t.Fatal("eve is not blue")
	}
	colors := s.ColorsOf(eve)
	if len(colors) != 2 || colors[0] != "green" || colors[1] != "red" {
		t.Fatalf("ColorsOf = %v", colors)
	}
}

func TestParentChildrenSubtree(t *testing.T) {
	m, s := load(t)
	comedy := storage.ElemID(m.Node("comedy").ID())
	sn, ok, err := s.StructOf(comedy, "red")
	if err != nil || !ok {
		t.Fatal(err)
	}
	kids, err := s.ChildrenOf(sn)
	if err != nil {
		t.Fatal(err)
	}
	// comedy: name, slapstick, eve, hot.
	if len(kids) != 4 {
		t.Fatalf("children = %d, want 4", len(kids))
	}
	for _, k := range kids {
		if !sn.IsParentOf(k) {
			t.Fatalf("IsParentOf failed for %+v", k)
		}
	}
	desc, err := s.Subtree(sn)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) <= len(kids) {
		t.Fatalf("descendants = %d", len(desc))
	}
	parent, ok, err := s.ParentOf(kids[0])
	if err != nil || !ok || parent.Elem != comedy {
		t.Fatalf("ParentOf = %+v, %v, %v", parent, ok, err)
	}
	roots, err := s.Roots("red")
	if err != nil || len(roots) != 1 {
		t.Fatalf("red roots = %v, %v", roots, err)
	}
}

func TestUpdateContent(t *testing.T) {
	m, s := load(t)
	votes := storage.ElemID(m.Node("eve-votes").ID())
	if err := s.UpdateContent(votes, "15"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ContentOf(votes)
	if got != "15" {
		t.Fatalf("content = %q", got)
	}
	// Content index re-keyed.
	hits, _ := s.EqContent("green", "votes", "15")
	if len(hits) != 1 {
		t.Fatalf("EqContent(15) = %d", len(hits))
	}
	old, _ := s.EqContent("green", "votes", "14")
	if len(old) != 0 {
		t.Fatal("old content key should be gone")
	}
	// Larger content forces record relocation.
	if err := s.UpdateContent(votes, "a considerably longer content value than before"); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ContentOf(votes)
	if got != "a considerably longer content value than before" {
		t.Fatalf("relocated content = %q", got)
	}
}

func TestInsertLeafChild(t *testing.T) {
	m, s := load(t)
	bette := storage.ElemID(m.Node("bette").ID())
	sn, _, err := s.StructOf(bette, "blue")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Counts().Elements
	child, err := s.InsertLeafChild(sn, "birthDate", "1908-04-05", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counts().Elements != before+1 {
		t.Fatal("element count did not grow")
	}
	if !sn.IsParentOf(child) {
		t.Fatalf("child not under parent: %+v / %+v", sn, child)
	}
	kids, err := s.ChildrenOf(sn)
	if err != nil {
		t.Fatal(err)
	}
	last := kids[len(kids)-1]
	if last.Elem != child.Elem {
		t.Fatalf("inserted child not last: %+v", kids)
	}
	found, _ := s.ScanTag("blue", "birthDate")
	if len(found) != 1 {
		t.Fatalf("tag index missing new leaf: %v", found)
	}
}

func TestInsertsExtendParent(t *testing.T) {
	m, s := load(t)
	bette := storage.ElemID(m.Node("bette").ID())
	sn, _, err := s.StructOf(bette, "blue")
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the interval, several times: insert many leaves under one parent.
	for i := 0; i < 100; i++ {
		var err error
		sn, _, err = s.StructOf(bette, "blue")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertLeafChild(sn, "x", "v", nil); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	sn, _, _ = s.StructOf(bette, "blue")
	kids, err := s.ChildrenOf(sn)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 102 { // name + movie-role + 100 inserted
		t.Fatalf("children = %d, want 102", len(kids))
	}
	// Intervals remain nested.
	for _, k := range kids {
		if !sn.Contains(k) || !sn.IsParentOf(k) {
			t.Fatalf("broken nesting: parent %+v child %+v", sn, k)
		}
	}
	// Cross-links survive relabelling: movie-role is red+blue.
	role := storage.ElemID(m.Node("eve-role").ID())
	red, ok, err := s.CrossTree(role, "red")
	if err != nil || !ok {
		t.Fatalf("cross after relabel: %v %v", ok, err)
	}
	if red.Color != "red" {
		t.Fatal("wrong color")
	}
}

func TestDeleteSubtree(t *testing.T) {
	m, s := load(t)
	// Delete the green subtree of y1950: removes eve's green struct node but
	// keeps eve alive (it is red too); the green-only votes element dies.
	y1950 := storage.ElemID(m.Node("y1950").ID())
	sn, _, err := s.StructOf(y1950, "green")
	if err != nil {
		t.Fatal(err)
	}
	eve := storage.ElemID(m.Node("eve").ID())
	votes := storage.ElemID(m.Node("eve-votes").ID())
	if err := s.DeleteSubtree(sn); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.CrossTree(eve, "green"); ok {
		t.Fatal("eve should have lost green")
	}
	if _, ok, _ := s.CrossTree(eve, "red"); !ok {
		t.Fatal("eve should keep red")
	}
	if _, err := s.Elem(votes); err == nil {
		t.Fatal("green-only votes element should be gone")
	}
	if _, err := s.Elem(eve); err != nil {
		t.Fatal("eve's element record must survive")
	}
	greenMovies, _ := s.ScanTag("green", "movie")
	for _, mv := range greenMovies {
		if mv.Elem == eve {
			t.Fatal("tag index still lists deleted struct node")
		}
	}
}

func TestRootsOfEachColor(t *testing.T) {
	_, s := load(t)
	for _, c := range []core.Color{"red", "green", "blue"} {
		roots, err := s.Roots(c)
		if err != nil || len(roots) != 1 {
			t.Fatalf("roots(%s) = %v, %v", c, roots, err)
		}
		if roots[0].Level != 0 || roots[0].ParentStart != -1 {
			t.Fatalf("root shape: %+v", roots[0])
		}
	}
}
