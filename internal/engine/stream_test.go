package engine_test

import (
	"strings"
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

func movieStore(t *testing.T) *storage.Store {
	t.Helper()
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamingBatches: rows arrive in batches through the iterator
// interface, and a plan may be closed early without exhausting it.
func TestStreamingBatches(t *testing.T) {
	s := movieStore(t)
	op := &engine.ScanTag{Color: "red", Tag: "movie"}
	ctx := &engine.Ctx{S: s}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b engine.Batch
	if err := op.NextBatch(ctx, &b); err != nil {
		t.Fatalf("first NextBatch: %v", err)
	}
	if b.Len() == 0 {
		t.Fatal("first batch is empty")
	}
	if len(b.Row(0)) != 1 {
		t.Fatalf("scan rows have one column, got %d", len(b.Row(0)))
	}
	// Abandon the scan early: Close must succeed and be idempotent.
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestReopenable: the same plan instance executes repeatedly with identical
// results (Open fully re-prepares state after Close).
func TestReopenable(t *testing.T) {
	s := movieStore(t)
	plan := &engine.Dedup{
		Input: &engine.StructJoin{
			Anc:    &engine.ScanTag{Color: "red", Tag: "movie"},
			Desc:   &engine.ScanTag{Color: "red", Tag: "name"},
			AncCol: 0, DescCol: 0,
			Axis: engine.ParentChild,
		},
		Col: 1,
	}
	first, _, err := execRows(nil, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := execRows(nil, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("re-execution differs: %d vs %d rows", len(first), len(second))
	}
	for i := range first {
		if first[i][1].Elem != second[i][1].Elem {
			t.Fatalf("row %d differs across executions", i)
		}
	}
}

// TestChildrenExposeWholeTree: every operator reports its direct inputs, so a
// generic walk (and therefore Explain) reaches the entire plan.
func TestChildrenExposeWholeTree(t *testing.T) {
	scanMovies := &engine.ScanTag{Color: "red", Tag: "movie"}
	scanNames := &engine.ScanTag{Color: "red", Tag: "name"}
	probe := &engine.EqContent{Color: "green", Tag: "name", Value: "Oscar"}
	plan := &engine.Dedup{
		Input: &engine.ExistsJoin{
			Input: &engine.CrossColor{
				Input: &engine.StructJoin{
					Anc: scanMovies, Desc: scanNames,
					AncCol: 0, DescCol: 0, Axis: engine.ParentChild,
				},
				Col: 0, To: "green",
			},
			Probe: probe, Col: 2, ProbeCol: 0,
			Axis: engine.AncestorDescendant,
		},
		Col: 0,
	}
	var count int
	var walk func(op engine.Op)
	walk = func(op engine.Op) {
		count++
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	walk(plan)
	if count != 7 {
		t.Fatalf("Children() walk reached %d of 7 operators", count)
	}
	ex := engine.Explain(plan)
	for _, want := range []string{"Dedup", "ExistsJoin", "CrossColor", "StructJoin", "ScanTag", "EqContent"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain misses %s:\n%s", want, ex)
		}
	}
}

// TestPeakMaterialization: a scan-filter-project pipeline holds only its
// in-flight batches (bounded by pipeline depth × BatchSize), while explicit
// pipeline breakers (here a hash-join build side) additionally hold whole
// build sides, and ExplainAnalyze reports the peak of both.
func TestPeakMaterialization(t *testing.T) {
	s := movieStore(t)
	streaming := &engine.Project{
		Input: &engine.Filter{
			Input: &engine.ScanTag{Color: "red", Tag: "name"},
			Col:   0,
			Pred:  engine.Pred{Kind: "contains", Value: "e"},
		},
		Cols: []int{0},
	}
	an, err := engine.ExplainAnalyze(s, streaming)
	if err != nil {
		t.Fatal(err)
	}
	if an.PeakMaterialized <= 0 {
		t.Fatalf("in-flight batch rows should be counted, peak=%d\n%s",
			an.PeakMaterialized, an.Text)
	}
	// Three transfer edges (scan->filter, filter->project, project->executor),
	// each at most one batch in flight.
	if an.PeakMaterialized > 3*engine.BatchSize {
		t.Fatalf("streaming pipeline peak %d exceeds its in-flight batch bound %d\n%s",
			an.PeakMaterialized, 3*engine.BatchSize, an.Text)
	}
	if an.Metrics.RowsOut == 0 {
		t.Fatal("expected some matching names")
	}

	breaker := &engine.IDJoin{
		Left:    &engine.ScanTag{Color: "red", Tag: "movie"},
		Right:   &engine.ScanTag{Color: "green", Tag: "movie"},
		LeftCol: 0, RightCol: 0,
	}
	an, err = engine.ExplainAnalyze(s, breaker)
	if err != nil {
		t.Fatal(err)
	}
	if an.PeakMaterialized <= 0 {
		t.Fatalf("hash join build side should be counted, peak=%d", an.PeakMaterialized)
	}
	if !strings.Contains(an.Text, "peak live") {
		t.Fatalf("analyzed text misses the peak line:\n%s", an.Text)
	}
}
