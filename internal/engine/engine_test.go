package engine_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

func loadStore(t *testing.T) (*fixtures.MovieDB, *storage.Store) {
	t.Helper()
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// execRows runs a plan the way serving does, streaming it with no pool
// under cctx (nil: none), and returns copies of its rows.
func execRows(cctx context.Context, s *storage.Store, plan engine.Op) ([]engine.Row, engine.Metrics, error) {
	var rows []engine.Row
	m, err := engine.ExecBatchesPooled(cctx, s, nil, plan, func(b *engine.Batch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, slices.Clone(b.Row(i)))
		}
		return nil
	})
	if err != nil {
		return nil, m, err
	}
	return rows, m, nil
}

func run(t *testing.T, s *storage.Store, plan engine.Op) ([]engine.Row, engine.Metrics) {
	t.Helper()
	rows, m, err := execRows(nil, s, plan)
	if err != nil {
		t.Fatalf("exec: %v\nplan:\n%s", err, engine.Explain(plan))
	}
	return rows, m
}

func TestScanAndFilter(t *testing.T) {
	_, s := loadStore(t)
	plan := &engine.Filter{
		Input: &engine.ScanTag{Color: "red", Tag: "name"},
		Col:   0,
		Pred:  engine.Pred{Kind: "contains", Value: "Eve"},
	}
	rows, m := run(t, s, plan)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if m.ContentReads == 0 {
		t.Fatal("filter should read content")
	}
}

func TestEqContentAndContainsScan(t *testing.T) {
	_, s := loadStore(t)
	rows, _ := run(t, s, &engine.EqContent{Color: "red", Tag: "name", Value: "Comedy"})
	if len(rows) != 1 {
		t.Fatalf("EqContent rows = %d", len(rows))
	}
	rows, _ = run(t, s, &engine.ContainsScan{Color: "green", Tag: "name",
		Pred: engine.Pred{Kind: "contains", Value: "Oscar"}})
	if len(rows) != 1 {
		t.Fatalf("ContainsScan rows = %d", len(rows))
	}
}

// TestQ1PlanMCT evaluates paper query Q1 on the physical store: comedy
// movies whose title contains Eve, all within the red tree.
func TestQ1PlanMCT(t *testing.T) {
	_, s := loadStore(t)
	comedy := &engine.ExistsJoin{
		Input:    &engine.ScanTag{Color: "red", Tag: "movie-genre"},
		Probe:    &engine.EqContent{Color: "red", Tag: "name", Value: "Comedy"},
		Col:      0,
		ProbeCol: 0,
		Axis:     engine.ParentChild,
	}
	movies := &engine.StructJoin{
		Anc:    comedy,
		Desc:   &engine.ContainsScan{Color: "red", Tag: "name", Pred: engine.Pred{Kind: "contains", Value: "Eve"}},
		AncCol: 0, DescCol: 0,
		Axis: engine.AncestorDescendant,
	}
	// movies: rows (genre, name); restrict name's parent to be a movie.
	full := &engine.StructJoin{
		Anc:    &engine.ScanTag{Color: "red", Tag: "movie"},
		Desc:   movies,
		AncCol: 0, DescCol: 1,
		Axis: engine.ParentChild,
	}
	rows, m := run(t, s, full)
	if len(rows) != 1 {
		t.Fatalf("Q1 rows = %d\n%s", len(rows), engine.Explain(full))
	}
	content, err := s.ContentOf(rows[0][2].Elem)
	if err != nil || content != "All About Eve" {
		t.Fatalf("Q1 content = %v, %v", content, err)
	}
	if m.StructJoins == 0 {
		t.Fatal("expected structural join activity")
	}
	if m.CrossJoins != 0 || m.ValueJoins != 0 {
		t.Fatal("single-color plan should not cross or value join")
	}
}

// TestQ2PlanMCTWithColorCrossing: Oscar-nominated comedies via a cross-tree
// join from red movies into the green hierarchy.
func TestQ2PlanMCTWithColorCrossing(t *testing.T) {
	_, s := loadStore(t)
	comedyMovies := &engine.StructJoin{
		Anc: &engine.ExistsJoin{
			Input:    &engine.ScanTag{Color: "red", Tag: "movie-genre"},
			Probe:    &engine.EqContent{Color: "red", Tag: "name", Value: "Comedy"},
			Col:      0,
			ProbeCol: 0,
			Axis:     engine.ParentChild,
		},
		Desc:   &engine.ScanTag{Color: "red", Tag: "movie"},
		AncCol: 0, DescCol: 0,
		Axis: engine.AncestorDescendant,
	}
	// Cross into green: survivors are Oscar nominated (all green movies sit
	// under the Oscar award in the fixture).
	crossed := &engine.CrossColor{Input: comedyMovies, Col: 1, To: "green"}
	rows, m := run(t, s, crossed)
	if len(rows) != 2 { // eve, hot
		t.Fatalf("Q2 rows = %d", len(rows))
	}
	if m.CrossJoins == 0 {
		t.Fatal("expected cross-tree joins")
	}
}

// TestShallowValueJoinPlan mimics the shallow representation: relate movies
// to roles via ID/IDREF value joins instead of structure.
func TestShallowValueJoinPlan(t *testing.T) {
	m := fixtures.NewMovieDB()
	for i, key := range []string{"eve", "hot", "duck", "angry"} {
		id := string(rune('a' + i))
		if _, err := m.DB.SetAttribute(m.Node(key), "id", id); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DB.SetAttribute(m.Node(key+"-role"), "movieIdRef", id); err != nil {
			t.Fatal(err)
		}
	}
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &engine.ValueJoin{
		Left:     &engine.ScanTag{Color: "red", Tag: "movie"},
		Right:    &engine.ScanTag{Color: "red", Tag: "movie-role"},
		LeftCol:  0,
		RightCol: 0,
		LeftKey:  engine.Key{Attr: "id"},
		RightKey: engine.Key{Attr: "movieIdRef"},
	}
	rows, met := run(t, s, plan)
	if len(rows) != 4 {
		t.Fatalf("value join rows = %d", len(rows))
	}
	if met.ValueJoins == 0 {
		t.Fatal("expected value join probes")
	}
}

func TestNLJoinInequality(t *testing.T) {
	_, s := loadStore(t)
	plan := &engine.NLJoin{
		Left:     &engine.ScanTag{Color: "green", Tag: "votes"},
		Right:    &engine.ScanTag{Color: "green", Tag: "votes"},
		LeftCol:  0,
		RightCol: 0,
		Kind:     "gt",
		Numeric:  true,
	}
	rows, _ := run(t, s, plan)
	// votes 14, 9, 11 -> numeric gt pairs: (14,9) (14,11) (11,9) = 3.
	if len(rows) != 3 {
		t.Fatalf("NL rows = %d", len(rows))
	}
}

func TestDedupAndProjectAndSort(t *testing.T) {
	_, s := loadStore(t)
	// Roles joined up to movies twice produce duplicate movie bindings.
	j := &engine.StructJoin{
		Anc:    &engine.ScanTag{Color: "red", Tag: "movie-genre"},
		Desc:   &engine.ScanTag{Color: "red", Tag: "name"},
		AncCol: 0, DescCol: 0,
		Axis: engine.AncestorDescendant,
	}
	proj := &engine.Project{Input: j, Cols: []int{0}}
	rows, _ := run(t, s, proj)
	d := &engine.Dedup{Input: proj, Col: 0}
	dedup, _ := run(t, s, d)
	if len(dedup) >= len(rows) {
		t.Fatalf("dedup did not shrink: %d -> %d", len(rows), len(dedup))
	}
	if len(dedup) != 3 {
		t.Fatalf("distinct genres with names = %d", len(dedup))
	}
	sorted, _ := run(t, s, &engine.SortStart{Input: d, Col: 0})
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1][0].Start > sorted[i][0].Start {
			t.Fatal("not sorted")
		}
	}
}

func TestAttrFilter(t *testing.T) {
	m := fixtures.NewMovieDB()
	if _, err := m.DB.SetAttribute(m.Node("eve"), "id", "m1"); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	filt := &engine.AttrFilter{
		Input: &engine.ScanTag{Color: "red", Tag: "movie"},
		Col:   0, Name: "id",
		Pred: engine.Pred{Kind: "eq", Value: "m1"},
	}
	rows, _ := run(t, s, filt)
	if len(rows) != 1 {
		t.Fatalf("AttrFilter rows = %d", len(rows))
	}
}

func TestExplainRendering(t *testing.T) {
	plan := &engine.CrossColor{
		Input: &engine.StructJoin{
			Anc:  &engine.ScanTag{Color: "red", Tag: "movie-genre"},
			Desc: &engine.ScanTag{Color: "red", Tag: "movie"},
			Axis: engine.AncestorDescendant,
		},
		Col: 1, To: "green",
	}
	out := engine.Explain(plan)
	for _, frag := range []string{"CrossColor", "StructJoin", "ScanTag{red}movie-genre", "ScanTag{red}movie"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("explain missing %q:\n%s", frag, out)
		}
	}
	// Children are indented under parents.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 || strings.HasPrefix(lines[0], " ") || !strings.HasPrefix(lines[1], "  ") {
		t.Fatalf("explain shape:\n%s", out)
	}
}

func TestPredKinds(t *testing.T) {
	cases := []struct {
		pred    engine.Pred
		content string
		want    bool
	}{
		{engine.Pred{Kind: "eq", Value: "x"}, "x", true},
		{engine.Pred{Kind: "ne", Value: "x"}, "y", true},
		{engine.Pred{Kind: "contains", Value: "bc"}, "abcd", true},
		{engine.Pred{Kind: "prefix", Value: "ab"}, "abcd", true},
		{engine.Pred{Kind: "lt", Value: "10", Numeric: true}, "9", true},
		{engine.Pred{Kind: "lt", Value: "10", Numeric: false}, "9", false},
		{engine.Pred{Kind: "ge", Value: "2.5", Numeric: true}, "3", true},
		{engine.Pred{Kind: "gt", Value: "abc"}, "abd", true},
	}
	for _, c := range cases {
		got, err := c.pred.Eval(c.content)
		if err != nil || got != c.want {
			t.Errorf("%v on %q = %v, %v; want %v", c.pred, c.content, got, err, c.want)
		}
	}
	if _, err := (engine.Pred{Kind: "bogus"}).Eval("x"); err == nil {
		t.Fatal("unknown kind should error")
	}
}

// TestTupleOrder: binding tuples come out by the first column's start, then
// the second's, whatever order the input has them in, each exactly once.
func TestTupleOrder(t *testing.T) {
	_, s := loadStore(t)
	// (genre, name) for every name below a genre, in genre order. Genres
	// nest, so projected to (name, name) a name below two genres comes twice,
	// and names are out of order.
	pairs := func() engine.Op {
		return &engine.StructJoin{
			Anc:    &engine.ScanTag{Color: "red", Tag: "movie-genre"},
			Desc:   &engine.ScanTag{Color: "red", Tag: "name"},
			AncCol: 0, DescCol: 0,
			Axis: engine.AncestorDescendant,
		}
	}
	names := func() engine.Op { return &engine.Project{Cols: []int{1, 1}, Input: pairs()} }
	in, _ := run(t, s, names())
	want, _ := run(t, s, &engine.SortStart{Col: 0, Input: &engine.Dedup{Col: 0, Input: names()}})
	got, _ := run(t, s, &engine.TupleOrder{Input: names()})
	if len(want) >= len(in) {
		t.Fatalf("set-up: no name is reached twice (%d rows, %d distinct)", len(in), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].Elem != want[i][0].Elem || got[i][1].Elem != want[i][0].Elem {
			t.Fatalf("tuple %d is element %d, want %d", i, got[i][0].Elem, want[i][0].Elem)
		}
	}
	// Two columns: order by the first, then the second.
	got, _ = run(t, s, &engine.TupleOrder{Input: &engine.SortStart{Col: 1, Input: pairs()}})
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a[0].Start > b[0].Start || (a[0].Start == b[0].Start && a[1].Start >= b[1].Start) {
			t.Fatalf("tuple %d (%d,%d) does not follow (%d,%d)", i, b[0].Start, b[1].Start, a[0].Start, a[1].Start)
		}
	}
}
