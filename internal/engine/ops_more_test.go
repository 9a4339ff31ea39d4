package engine_test

import (
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

// TestValueJoinMultiKey exercises the IDREFS variant: one side's key is a
// space-separated list (contains(@roleIdRefs, @id) in the paper's Shallow-1
// example).
func TestValueJoinMultiKey(t *testing.T) {
	m := fixtures.NewMovieDB()
	if _, err := m.DB.SetAttribute(m.Node("bette"), "roleIdRefs", "r1 r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.SetAttribute(m.Node("marilyn"), "roleIdRefs", "r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.SetAttribute(m.Node("eve-role"), "id", "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.SetAttribute(m.Node("hot-role"), "id", "r2"); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &engine.ValueJoin{
		Left:     &engine.ScanTag{Color: "blue", Tag: "actor"},
		Right:    &engine.ScanTag{Color: "red", Tag: "movie-role"},
		LeftCol:  0,
		RightCol: 0,
		LeftKey:  engine.Key{Attr: "roleIdRefs", Multi: true},
		RightKey: engine.Key{Attr: "id"},
	}
	rows, _, err := engine.Exec(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	// bette->r1, bette->r2, marilyn->r2.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

// TestValueJoinContentKey joins on element content rather than attributes.
func TestValueJoinContentKey(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Join green votes with themselves by content: each matches itself.
	plan := &engine.ValueJoin{
		Left:     &engine.ScanTag{Color: "green", Tag: "votes"},
		Right:    &engine.ScanTag{Color: "green", Tag: "votes"},
		LeftCol:  0,
		RightCol: 0,
		LeftKey:  engine.Key{Content: true},
		RightKey: engine.Key{Content: true},
	}
	rows, met, err := engine.Exec(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (distinct vote values)", len(rows))
	}
	if met.ContentReads == 0 {
		t.Fatal("content keys must cost content reads")
	}
}

// TestCrossColorDropsIncompatible: crossing a mixed row set keeps only nodes
// that participate in the target color.
func TestCrossColorDropsIncompatible(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &engine.CrossColor{
		Input: &engine.ScanTag{Color: "red", Tag: "movie"},
		Col:   0,
		To:    "green",
	}
	rows, met, err := engine.Exec(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // duck is red-only
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if met.CrossJoins != 4 { // all four movies probed
		t.Fatalf("cross joins = %d, want 4", met.CrossJoins)
	}
	for _, r := range rows {
		if r[1].Color != "green" {
			t.Fatalf("crossed column color = %q", r[1].Color)
		}
		if r[0].Elem != r[1].Elem {
			t.Fatal("crossing must preserve element identity")
		}
	}
}

// TestExistsJoinDirections covers both axes, and a probe that holds no
// partner for any input row.
func TestExistsJoinDirections(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	genreScan := func() engine.Op { return &engine.ScanTag{Color: "red", Tag: "movie-genre"} }
	movieScan := func() engine.Op { return &engine.ScanTag{Color: "red", Tag: "movie"} }
	cases := []struct {
		name  string
		plan  engine.Op
		nRows int
	}{
		{"genres with movie child", &engine.ExistsJoin{
			Input: genreScan(), Probe: movieScan(), Axis: engine.ParentChild}, 3},
		{"genres with movie descendant", &engine.ExistsJoin{
			Input: genreScan(), Probe: movieScan(), Axis: engine.AncestorDescendant}, 3},
		{"movies with a genre descendant", &engine.ExistsJoin{
			Input: movieScan(), Probe: genreScan(), Axis: engine.AncestorDescendant}, 0},
	}
	for _, c := range cases {
		rows, _, err := engine.Exec(s, c.plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != c.nRows {
			t.Errorf("%s: rows = %d, want %d", c.name, len(rows), c.nRows)
		}
	}
}

// TestMetricsRowsOut verifies executor bookkeeping.
func TestMetricsRowsOut(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, met, err := engine.Exec(s, &engine.ScanTag{Color: "blue", Tag: "actor"})
	if err != nil {
		t.Fatal(err)
	}
	if met.RowsOut != len(rows) || met.RowsOut != 4 {
		t.Fatalf("RowsOut = %d, rows = %d", met.RowsOut, len(rows))
	}
}

// TestEmptyInputsFlowThrough: operators tolerate empty inputs.
func TestEmptyInputsFlowThrough(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := &engine.EqContent{Color: "red", Tag: "name", Value: "No Such Movie"}
	plans := []engine.Op{
		&engine.Filter{Input: empty, Col: 0, Pred: engine.Pred{Kind: "eq", Value: "x"}},
		&engine.StructJoin{Anc: empty, Desc: &engine.ScanTag{Color: "red", Tag: "movie"}, Axis: engine.AncestorDescendant},
		&engine.CrossColor{Input: empty, Col: 0, To: "green"},
		&engine.ValueJoin{Left: empty, Right: empty, LeftKey: engine.Key{Attr: "id"}, RightKey: engine.Key{Attr: "id"}},
		&engine.NLJoin{Left: empty, Right: empty, Kind: "gt"},
		&engine.Dedup{Input: empty},
		&engine.SortStart{Input: empty},
		&engine.Project{Input: empty, Cols: []int{0}},
	}
	for _, p := range plans {
		rows, _, err := engine.Exec(s, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(rows) != 0 {
			t.Fatalf("%s: rows = %d", p, len(rows))
		}
	}
}
