package plan_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// libStore builds a single-color tree big enough that the path-summary probe
// beats the structural-join chain: a root with n <item> children, each
// holding one <name> and one <price> leaf.
func libStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	db := core.NewDatabase("red")
	root, err := db.AddElement(db.Document(), "lib", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		item, err := db.AddElement(root, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(item, "name", "red", fmt.Sprintf("n%03d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(item, "price", "red", fmt.Sprintf("%d", i%7)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const libQuery = `document("db")/{red}descendant::item/{red}child::name`

func TestSummaryLoweringChoosesPathScan(t *testing.T) {
	s := libStore(t, 500)
	c, err := plan.CompileQuery(libQuery, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.Explain(c.Root)
	if !strings.Contains(ex, "PathScan{red}//item/name") {
		t.Fatalf("expected the summary probe access path:\n%s", ex)
	}
	if strings.Contains(ex, "StructJoin") {
		t.Fatalf("summary probe should replace the structural-join chain:\n%s", ex)
	}
}

// TestSummaryLoweringRowEquivalent: the probe plan returns exactly the rows
// of the structural-join plan (compiled with the summary disabled via a
// catalog that lacks PathCount).
type noPathCatalog struct{ plan.StoreCatalog }

// Shadow the promoted PathCount with an always-unavailable variant.
func (noPathCatalog) PathCount(core.Color, []storage.PathStep) (int, bool) { return 0, false }

func TestSummaryLoweringRowEquivalent(t *testing.T) {
	s := libStore(t, 300)
	probe, err := plan.CompileQuery(libQuery, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatal(err)
	}
	joins, err := plan.CompileQuery(libQuery,
		plan.Options{Catalog: noPathCatalog{plan.StoreCatalog{Store: s}}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := engine.Explain(joins.Root); !strings.Contains(ex, "StructJoin") {
		t.Fatalf("disabled summary should fall back to joins:\n%s", ex)
	}
	pr, _, err := engine.Exec(s, probe.Root)
	if err != nil {
		t.Fatal(err)
	}
	jr, _, err := engine.Exec(s, joins.Root)
	if err != nil {
		t.Fatal(err)
	}
	key := func(rows []engine.Row, col int) []storage.ElemID {
		out := make([]storage.ElemID, len(rows))
		for i, r := range rows {
			out[i] = r[col].Elem
		}
		return out
	}
	if !reflect.DeepEqual(key(pr, probe.OutCol), key(jr, joins.OutCol)) {
		t.Fatalf("summary probe diverges from join chain: %d vs %d rows", len(pr), len(jr))
	}
}

// TestSummaryLoweringCostGate: on a tiny store the fixed summary-probe cost
// dominates and the compiler keeps the structural-join chain.
func TestSummaryLoweringCostGate(t *testing.T) {
	s := libStore(t, 3)
	c, err := plan.CompileQuery(libQuery, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := engine.Explain(c.Root); strings.Contains(ex, "PathScan") {
		t.Fatalf("tiny input should keep the join chain:\n%s", ex)
	}
}

// TestSummaryLoweringIneligible: a predicate on a non-final step keeps the
// join lowering.
func TestSummaryLoweringIneligible(t *testing.T) {
	s := libStore(t, 500)
	for _, src := range []string{
		// Predicate on the intermediate step.
		`document("db")/{red}descendant::item[{red}child::price = "3"]/{red}child::name`,
	} {
		c, err := plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
		if err != nil {
			t.Fatal(err)
		}
		if ex := engine.Explain(c.Root); strings.Contains(ex, "PathScan") {
			t.Fatalf("%s should not use the summary probe:\n%s", src, ex)
		}
	}
}

// TestSummaryLoweringFinalStepPredicate: a final-step predicate stays
// eligible and is applied after the probe.
func TestSummaryLoweringFinalStepPredicate(t *testing.T) {
	s := libStore(t, 500)
	src := `document("db")/{red}descendant::item/{red}child::name[. = "n042"]`
	c, err := plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := engine.Exec(s, c.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want the single matching name, got %d rows", len(rows))
	}
	e, err := s.Elem(rows[0][c.OutCol].Elem)
	if err != nil {
		t.Fatal(err)
	}
	if e.Content != "n042" {
		t.Fatalf("wrong node: %q", e.Content)
	}
}

// nestStore is libStore's shape with every other item holding an inner item
// as its first child, ahead of its own name: item n000 is
// <item><item><name>in000</name></item><name>n000</name></item>, so the
// names' document order puts in000 first and a FLWOR's binding order puts
// n000 first.
func nestStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	db := core.NewDatabase("red")
	root, err := db.AddElement(db.Document(), "lib", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		item, err := db.AddElement(root, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			inner, err := db.AddElement(item, "item", "red")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddElementText(inner, "name", "red", fmt.Sprintf("in%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.AddElementText(item, "name", "red", fmt.Sprintf("n%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFlworFoldsWhenBindingsCannotNest: `for $i in P return $i/Q` compiles as
// the path P/Q — here one summary probe, with no column for $i — when the
// path summary proves P's last tag never nests; when it nests, the FLWOR keeps
// its join and answers in binding order, which is not document order.
func TestFlworFoldsWhenBindingsCannotNest(t *testing.T) {
	const src = `for $i in document("db")/{red}descendant::item return $i/{red}child::name`
	const n = 500
	run := func(s *storage.Store, c *plan.Compiled) []string {
		rows, _, err := engine.Exec(s, c.Root)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			if out[i], err = s.ContentOf(r[c.OutCol].Elem); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	flat := libStore(t, n)
	c, err := plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: flat}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := engine.Explain(c.Root); ex != "PathScan{red}//item/name\n" {
		t.Errorf("non-nesting items: plan\n%swant the summary probe alone", ex)
	}
	if _, ok := c.VarCols["i"]; ok || c.Folded != "{red}//item/name" || c.BindingOrder {
		t.Errorf("folded plan: VarCols %v, Folded %q, BindingOrder %v", c.VarCols, c.Folded, c.BindingOrder)
	}
	if got := run(flat, c); len(got) != n || got[0] != "n000" || got[n-1] != fmt.Sprintf("n%03d", n-1) {
		t.Errorf("folded plan returns %d names from %v", len(got), got[:min(3, len(got))])
	}

	nested := nestStore(t, n)
	c, err = plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: nested}})
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.Explain(c.Root)
	if strings.Contains(ex, "PathScan") || !strings.Contains(ex, "TupleOrder") {
		t.Errorf("nesting items: plan\n%swant the join put into binding order", ex)
	}
	if _, ok := c.VarCols["i"]; !ok || c.Folded != "" || !c.BindingOrder {
		t.Errorf("unfolded plan: VarCols %v, Folded %q, BindingOrder %v", c.VarCols, c.Folded, c.BindingOrder)
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("n%03d", i))
		if i%2 == 0 {
			want = append(want, fmt.Sprintf("in%03d", i))
		}
	}
	if got := run(nested, c); !reflect.DeepEqual(got, want) {
		t.Errorf("nesting items: %d names from %v, want %d in binding order from %v",
			len(got), got[:min(4, len(got))], len(want), want[:4])
	}
}
