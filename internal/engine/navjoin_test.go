package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/storage"
)

// navStore bulk-loads a random small two-colour database for the
// NavJoin-vs-StructJoin differential: tags that recur at several depths (sec
// nests in sec), one very wide parent, and elements that lack a colour.
func navStore(t *testing.T, seed int64) *storage.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := core.NewDatabase("red", "green")
	add := func(parent *core.Node, tag string, c core.Color) *core.Node {
		n, err := db.AddElementText(parent, tag, c, fmt.Sprint("v", rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	reds := []*core.Node{add(db.Document(), "sec", "red")}
	greens := []*core.Node{add(db.Document(), "sec", "green")}
	tags := []string{"sec", "sec", "par", "note"}
	for i := 0; i < 80; i++ {
		parent := reds[rng.Intn(len(reds))]
		if i%4 == 0 {
			parent = reds[0] // the wide parent
		}
		n := add(parent, tags[rng.Intn(len(tags))], "red")
		reds = append(reds, n)
		switch rng.Intn(3) {
		case 0: // red only
		case 1: // both colours, elsewhere in the green tree
			if err := db.Adopt(greens[rng.Intn(len(greens))], n, "green"); err != nil {
				t.Fatal(err)
			}
			greens = append(greens, n)
		case 2: // a green-only sibling
			greens = append(greens, add(greens[rng.Intn(len(greens))], tags[rng.Intn(len(tags))], "green"))
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pairs renders rows as (elem of column a, elem of column b) sequences.
func pairs(rows []engine.Row, a, b int) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r[a].Elem, "/", r[b].Elem)
	}
	return out
}

// TestNavJoinMatchesStructJoin: on the same inputs NavJoin produces exactly
// StructJoin's rows in StructJoin's order — as it stands for the reverse
// axes, after the SortStart the compiler adds for the forward ones.
func TestNavJoinMatchesStructJoin(t *testing.T) {
	tags := []string{"sec", "par", "note", "nosuch"}
	for seed := int64(1); seed <= 6; seed++ {
		s := navStore(t, seed)
		for _, c := range []core.Color{"red", "green"} {
			scan := func(tag string) engine.Op { return &engine.ScanTag{Color: c, Tag: tag} }
			outers := map[string]func(tag string) engine.Op{
				"scan": scan,
				// Every node once per sec ancestor: duplicates, adjacent and
				// still in start order.
				"dups": func(tag string) engine.Op {
					return &engine.Project{Cols: []int{1}, Input: &engine.StructJoin{
						Anc: scan("sec"), Desc: scan(tag), Axis: engine.AncestorDescendant,
					}}
				},
			}
			for kind, outer := range outers {
				for _, from := range tags {
					for _, to := range tags {
						for _, axis := range []engine.NavAxis{engine.NavChild, engine.NavDescendant, engine.NavParent, engine.NavAncestor} {
							jaxis := engine.AncestorDescendant
							if axis == engine.NavChild || axis == engine.NavParent {
								jaxis = engine.ParentChild
							}
							var nav engine.Op = &engine.NavJoin{Input: outer(from), Col: 0, Axis: axis, Color: c, Tag: to}
							var want []string
							if axis == engine.NavChild || axis == engine.NavDescendant {
								nav = &engine.SortStart{Input: nav, Col: 1}
								rows, _ := run(t, s, &engine.StructJoin{Anc: outer(from), Desc: scan(to), Axis: jaxis})
								want = pairs(rows, 0, 1)
							} else {
								rows, _ := run(t, s, &engine.StructJoin{Anc: scan(to), Desc: outer(from), Axis: jaxis})
								want = pairs(rows, 1, 0)
							}
							rows, _ := run(t, s, nav)
							if got := pairs(rows, 0, 1); fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("seed %d {%s} %s %s -%s-> %s:\n got %v\nwant %v", seed, c, kind, from, axis, to, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestNavJoinFanOutAcrossBatches: one input row with more matches than a
// batch holds overflows through the pending queue, mid-row, in order; full
// batches stay full.
func TestNavJoinFanOutAcrossBatches(t *testing.T) {
	const n = 2*engine.BatchSize + 300
	s := bigStore(t, n)
	want, _ := run(t, s, &engine.ScanTag{Color: "red", Tag: "item"})
	nav := &engine.NavJoin{Input: &engine.ScanTag{Color: "red", Tag: "lib"}, Col: 0, Axis: engine.NavChild, Color: "red", Tag: "item"}
	var sizes []int
	var got []storage.ElemID
	m, err := engine.ExecBatches(context.Background(), s, nav, func(b *engine.Batch) error {
		sizes = append(sizes, b.Len())
		for i := 0; i < b.Len(); i++ {
			if r := b.Row(i); len(r) != 2 || r[0].Elem == r[1].Elem {
				return fmt.Errorf("torn row %v", r)
			}
			got = append(got, b.Row(i)[1].Elem)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{engine.BatchSize, engine.BatchSize, 300}) {
		t.Fatalf("batch sizes %v", sizes)
	}
	for i := range want {
		if got[i] != want[i][0].Elem {
			t.Fatalf("row %d is element %d, the scan has %d", i, got[i], want[i][0].Elem)
		}
	}
	if m.NavProbes != 1 || m.StructJoins != n {
		t.Fatalf("metrics %+v: want 1 probe, %d matches", m, n)
	}
}

// expiringCtx is a context that reports cancellation from its nth Err call
// on, which lands the cancellation in the middle of a batch.
type expiringCtx struct {
	context.Context
	calls, after int
}

func (c *expiringCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (c *expiringCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestNavJoinCancelledMidBatch: NavJoin polls per input row, so a
// cancellation that arrives inside a batch stops it there; what the batch
// holds by then are whole rows, and the operator closes cleanly.
func TestNavJoinCancelledMidBatch(t *testing.T) {
	s := bigStore(t, 3000)
	nav := &engine.NavJoin{Input: &engine.ScanTag{Color: "red", Tag: "item"}, Col: 0, Axis: engine.NavParent, Color: "red", Tag: "lib"}
	// NavJoin checks the context every 64th row (the scan under it only per
	// batch): let a few hundred rows through, then cancel.
	ctx := &engine.Ctx{S: s, Cancel: &expiringCtx{Context: context.Background(), after: 8}}
	if err := nav.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b engine.Batch
	err := nav.NextBatch(ctx, &b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b.Len() == 0 || b.Len() >= engine.BatchSize {
		t.Fatalf("cancellation should land mid-batch, batch has %d rows", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if r := b.Row(i); len(r) != 2 || !r[1].IsParentOf(r[0]) {
			t.Fatalf("torn row %d: %v", i, r)
		}
	}
	if err := nav.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// And through the executor the query just fails.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := engine.ExecContext(cctx, s, nav.Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNavJoinCloneOfOpenedIsUnopened: cloning an operator that is part-way
// through an execution gives a fresh one, and neither disturbs the other.
func TestNavJoinCloneOfOpenedIsUnopened(t *testing.T) {
	const n = engine.BatchSize + 200
	s := bigStore(t, n)
	proto := &engine.Uniq{Input: &engine.NavJoin{
		Input: &engine.ScanTag{Color: "red", Tag: "lib"}, Col: 0, Axis: engine.NavChild, Color: "red", Tag: "item",
	}}
	ctx := &engine.Ctx{S: s}
	if err := proto.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b engine.Batch
	if err := proto.NextBatch(ctx, &b); err != nil || b.Len() != engine.BatchSize {
		t.Fatalf("first batch: %d rows, err %v", b.Len(), err)
	}
	clone := proto.Clone() // proto now holds 200 rows in its pending queue
	rows, _ := run(t, s, clone)
	if len(rows) != n {
		t.Fatalf("clone of an opened operator returned %d rows, want all %d", len(rows), n)
	}
	if err := proto.NextBatch(ctx, &b); err != nil || b.Len() != 200 {
		t.Fatalf("original after the clone ran: %d rows, err %v", b.Len(), err)
	}
	if err := proto.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestUniqFoldsNavigationalPredicate: the navigational form of
// sec[child::par = "v1"] — fan out to the witnesses, filter, cut the witness
// column, fold — keeps exactly the rows ExistsJoin keeps, once each and in
// order, however many witnesses a row has.
func TestUniqFoldsNavigationalPredicate(t *testing.T) {
	folded := false
	for seed := int64(1); seed <= 6; seed++ {
		s := navStore(t, seed)
		pred := engine.Pred{Kind: "eq", Value: "v1"}
		want, _ := run(t, s, &engine.ExistsJoin{
			Input: &engine.ScanTag{Color: "red", Tag: "sec"},
			Probe: &engine.EqContent{Color: "red", Tag: "par", Value: "v1"},
			Axis:  engine.ParentChild,
		})
		fanned := &engine.Filter{Col: 1, Pred: pred, Input: &engine.NavJoin{
			Input: &engine.ScanTag{Color: "red", Tag: "sec"}, Col: 0, Axis: engine.NavChild, Color: "red", Tag: "par",
		}}
		all, _ := run(t, s, fanned.Clone())
		got, _ := run(t, s, &engine.Uniq{Input: &engine.Project{Cols: []int{0}, Input: fanned}})
		if fmt.Sprint(pairs(got, 0, 0)) != fmt.Sprint(pairs(want, 0, 0)) {
			t.Fatalf("seed %d:\n got %v\nwant %v", seed, pairs(got, 0, 0), pairs(want, 0, 0))
		}
		folded = folded || len(all) > len(got)
	}
	if !folded {
		t.Fatal("set-up: no sec in any store has two matching children")
	}
}

// TestExplainAnalyzeCountsNavProbes: the annotated plan reports how many
// input rows a NavJoin navigated from, next to the rows it produced.
func TestExplainAnalyzeCountsNavProbes(t *testing.T) {
	s := bigStore(t, 40)
	a, err := engine.ExplainAnalyze(s, &engine.NavJoin{
		Input: &engine.ScanTag{Color: "red", Tag: "item"}, Col: 0, Axis: engine.NavParent, Color: "red", Tag: "lib",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "NavJoin[col 0 parent::{red}lib]  (rows=40, batches=2, structJoins=40, probes=40)"; !strings.Contains(a.Text, want) {
		t.Fatalf("annotated plan lacks %q:\n%s", want, a.Text)
	}
	if a.Metrics.NavProbes != 40 {
		t.Fatalf("NavProbes = %d", a.Metrics.NavProbes)
	}
}
