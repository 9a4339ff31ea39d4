package workload_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/workload"
)

// TestDifferentialLogicalVsPhysical cross-checks the two evaluation stacks
// of this repository on the same data and queries: the reference
// tree-walking MCXQuery evaluator runs each query's MCT TEXT over the
// logical core database, while the physical engine runs the hand-specified
// PLAN over the Timber-style store. Both must produce the same result set.
//
// Queries are compared by the id attribute their result elements carry. Only
// queries whose MCT text is a faithful rendition of the plan are included
// (texts with illustrative literal constants that the plan derives from the
// entity pool are skipped).
func TestDifferentialLogicalVsPhysical(t *testing.T) {
	ds, err := datagen.TPCW(datagen.TPCWConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.LoadTPCW(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Logical evaluation of the MCT query texts over ds.MCT. The texts use
	// createColor, so each runs against a fresh logical database.
	cases := []string{"TQ1", "TQ2", "TQ5", "TQ8", "TQ9", "TQ11", "TQ13"}
	for _, id := range cases {
		q := findQuery(t, id)

		// Physical: run the plan, extract ids.
		physical, _, err := workload.RunQuery(q, st, workload.MCT)
		if err != nil {
			t.Fatalf("%s physical: %v", id, err)
		}

		// Logical: fresh database (createColor mutates), evaluate the text.
		fresh, err := datagen.BuildTPCWMCT(ds.Entities)
		if err != nil {
			t.Fatal(err)
		}
		ev := mcxquery.NewEvaluator(fresh)
		out, err := ev.Query(q.Text[workload.MCT])
		if err != nil {
			t.Fatalf("%s logical: %v\n%s", id, err, q.Text[workload.MCT])
		}
		var logical []string
		for _, it := range out {
			if it.Node == nil {
				t.Fatalf("%s: logical result is not a node: %+v", id, it)
			}
			// The result constructors wrap { $x/...attribute::id }: the id
			// attribute is copied onto the constructed element.
			v := it.Node.AttributeValue("id")
			if v == "" {
				// Some texts return the id as text content instead.
				v, _ = core.StringValue(it.Node, "black")
			}
			logical = append(logical, v)
		}

		sort.Strings(logical)
		phys := append([]string(nil), physical...)
		sort.Strings(phys)
		if len(logical) != len(phys) {
			t.Errorf("%s: logical %d results vs physical %d\nlogical: %v\nphysical: %v",
				id, len(logical), len(phys), logical, phys)
			continue
		}
		for i := range phys {
			if logical[i] != phys[i] {
				t.Errorf("%s: result sets differ at %d: %q vs %q", id, i, logical[i], phys[i])
				break
			}
		}
	}
}

// TestDifferentialShallowTexts does the same for the shallow value-join
// formulations: the logical evaluator executes the XQuery text with its
// where-clause joins over the shallow database; the engine executes the
// value-join plan over the shallow store.
func TestDifferentialShallowTexts(t *testing.T) {
	ds, err := datagen.TPCW(datagen.TPCWConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.LoadTPCW(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// TQ9/TQ11's shallow texts join orderlines to orders via @orderIdRef —
	// fully self-contained (no pool-derived constants).
	for _, id := range []string{"TQ9", "TQ11", "TQ2"} {
		q := findQuery(t, id)
		physical, _, err := workload.RunQuery(q, st, workload.Shallow)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := datagen.BuildTPCWShallow(ds.Entities)
		if err != nil {
			t.Fatal(err)
		}
		ev := mcxquery.NewEvaluator(fresh)
		ev.DefaultColor = datagen.ColDoc
		out, err := ev.Query(q.Text[workload.Shallow])
		if err != nil {
			t.Fatalf("%s logical shallow: %v", id, err)
		}
		if len(out) != len(physical) {
			t.Errorf("%s: logical shallow %d vs physical %d results", id, len(out), len(physical))
		}
	}
}

// deepUnsupported lists the deep texts that use distinct-values(), which the
// plan compiler deliberately does not lower. Every other text of every query
// must compile.
var deepUnsupported = map[string]bool{"TQ7": true, "TQ12": true, "TQ16": true, "SQ4": true}

// orderUndefined lists the MCT texts whose result order the compiled plan
// and the evaluator define differently, so only the sets are compared.
// TQ16's path ends by stepping from a {billing} orderline to its {author}
// parent: the evaluator sorts that last step's nodes into author-tree
// document order, the plan keeps the orderlines' billing-tree order.
var orderUndefined = map[string]bool{"TQ16": true}

// TestDifferentialCompiledPlans compiles every Table 2 query TEXT with the
// automatic plan compiler and cross-checks the result set against the
// hand-specified physical plan on the same store — for all three
// representations — and, for the MCT texts, additionally against the
// reference tree-walking evaluator. Comparisons with the hand plans are over
// distinct value sets; with the evaluator they are over distinct values in
// order of first appearance (compiled plans always deduplicate their output
// nodes; the evaluator returns one item per binding), so an access-path
// choice that reordered a result would show here.
func TestDifferentialCompiledPlans(t *testing.T) {
	tpcwDS, err := datagen.TPCW(datagen.TPCWConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := workload.LoadTPCW(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sgDS, err := datagen.Sigmod(datagen.SigmodConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.LoadSigmod(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	groups := []struct {
		queries []*workload.Query
		st      *workload.Stores
		freshDB func() (*core.Database, error)
	}{
		{workload.TPCWQueries(), tp, func() (*core.Database, error) { return datagen.BuildTPCWMCT(tpcwDS.Entities) }},
		{workload.SigmodQueries(), sg, func() (*core.Database, error) { return datagen.BuildSigmodMCT(sgDS.Sigmod) }},
	}

	nonEmpty := 0
	dedups := map[string]int{}
	for _, g := range groups {
		for _, q := range g.queries {
			for _, v := range workload.Variants {
				name := fmt.Sprintf("%s/%s", q.ID, v)
				values, handValues, _, err := workload.RunCompiled(q, g.st, v)
				if err != nil {
					if errors.Is(err, plan.ErrUnsupported) && v == workload.Deep && deepUnsupported[q.ID] {
						continue
					}
					t.Errorf("%s: compile/run: %v", name, err)
					continue
				}

				if c, err := workload.Compile(q, g.st, v); err != nil {
					t.Errorf("%s: compile: %v", name, err)
				} else {
					checkDedupVariants(t, name, g.st.Of(v), c)
					switch d, _ := c.Root.(*engine.Dedup); {
					case c.Distinct:
						dedups["elided"]++
					case d.Ordered:
						dedups["ordered"]++
					default:
						dedups["sorting"]++
					}
				}

				hand, _, err := workload.RunQuery(q, g.st, v)
				if err != nil {
					t.Fatalf("%s: hand plan: %v", name, err)
				}
				ch, hh := distinctSorted(handValues), distinctSorted(hand)
				if !equalStrings(ch, hh) {
					t.Errorf("%s: compiled %d values %v\n  != hand %d values %v",
						name, len(ch), trim(ch), len(hh), trim(hh))
					continue
				}
				if len(ch) > 0 {
					nonEmpty++
				}

				// Evaluator cross-check on the MCT texts. TQ10's text wraps
				// all orderlines of a binding in a single constructed <r>, so
				// its items are not value-comparable to plan rows.
				if v != workload.MCT || q.ID == "TQ10" {
					continue
				}
				fresh, err := g.freshDB()
				if err != nil {
					t.Fatal(err)
				}
				out, err := mcxquery.NewEvaluator(fresh).Query(
					workload.FaithfulText(q, v, g.st.Params))
				if err != nil {
					t.Fatalf("%s: evaluator: %v", name, err)
				}
				var ref []string
				for _, it := range out {
					if it.Node == nil {
						t.Fatalf("%s: evaluator result is not a node: %+v", name, it)
					}
					s := it.Node.AttributeValue("id")
					if s == "" {
						s, _ = core.StringValue(it.Node, "black")
					}
					ref = append(ref, s)
				}
				cv, rv := distinctSorted(values), distinctSorted(ref)
				if !equalStrings(cv, rv) {
					t.Errorf("%s: compiled %d values %v\n  != evaluator %d values %v",
						name, len(cv), trim(cv), len(rv), trim(rv))
				}
				if co, ro := distinctInOrder(values), distinctInOrder(ref); !orderUndefined[q.ID] && !equalStrings(co, ro) {
					t.Errorf("%s: compiled order %v\n  != evaluator order %v", name, trim(co), trim(ro))
				}
			}
		}
	}
	// Every way of making the output distinct must have been exercised.
	if dedups["elided"] == 0 || dedups["ordered"] == 0 || dedups["sorting"] == 0 {
		t.Errorf("final duplicate elimination by kind: %v, want some of each", dedups)
	}
	// Guard against vacuous agreement: most comparisons must be non-empty.
	if nonEmpty < 40 {
		t.Errorf("only %d non-empty compiled/hand comparisons; substitutions broken?", nonEmpty)
	}
}

// checkDedupVariants runs a compiled plan's output column three ways and
// requires one answer: as lowered (final Dedup elided where the compiler
// proved the column distinct, a one-comparison stream where it proved it
// ordered, the sorting Dedup otherwise); with the sorting Dedup forced on top
// (a wrong distinctness proof would lose rows here); and against a plain
// hash set over the plan without its own final Dedup — first occurrence of
// each element, in order. The ordered Dedup's input also goes through the
// sorting one.
func checkDedupVariants(t *testing.T, name string, s *storage.Store, c *plan.Compiled) {
	t.Helper()
	ids := func(op engine.Op) []storage.ElemID {
		got, _, err := engine.ExecColumn(nil, s, c.Mem, op.Clone(), c.OutCol, c.Rows, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}
	same := func(what string, got, want []storage.ElemID) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: %s returns %d rows, the plan as lowered %d (or the order differs)\n%s",
				name, what, len(got), len(want), engine.Explain(c.Root))
		}
	}
	lowered := ids(c.Root)
	same("a Dedup forced on top", ids(&engine.Dedup{Input: c.Root, Col: c.OutCol}), lowered)
	raw := c.Root
	if !c.Distinct {
		d, ok := c.Root.(*engine.Dedup)
		if !ok {
			t.Fatalf("%s: no final Dedup, and no claim that the output column is distinct", name)
		}
		raw = d.Input
		if d.Ordered {
			same("the sorting Dedup over the ordered one's input", ids(&engine.Dedup{Input: raw, Col: c.OutCol}), lowered)
		}
	}
	seen := map[storage.ElemID]bool{}
	var ref []storage.ElemID
	for _, id := range ids(raw) {
		if !seen[id] {
			seen[id] = true
			ref = append(ref, id)
		}
	}
	same("a hash set over the undeduplicated plan", ref, lowered)
}

func distinctSorted(in []string) []string {
	out := distinctInOrder(in)
	sort.Strings(out)
	return out
}

func distinctInOrder(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func trim(s []string) []string {
	if len(s) > 8 {
		return append(append([]string(nil), s[:8]...), "...")
	}
	return s
}

// TestDifferentialBenchClasses runs the six query classes of the repository
// benchmark (bench/data.go) on a two-colour catalog — compiled, where the
// three selective classes take navigational plans, and on the reference
// evaluator — and compares the results in order.
func TestDifferentialBenchClasses(t *testing.T) {
	const items = 900
	db := core.NewDatabase("red", "green")
	must := func(n *core.Node, err error) *core.Node {
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	catalog := must(db.AddElement(db.Document(), "catalog", "red"))
	featured := must(db.AddElement(db.Document(), "featured", "green"))
	for k := 0; k < items; k++ {
		item := must(db.AddElement(catalog, "item", "red"))
		must(db.AddElementText(item, "name", "red", fmt.Sprint("Item ", k)))
		if k%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				t.Fatal(err)
			}
			must(db.AddElementText(item, "votes", "green", fmt.Sprint(k%50)))
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	point := `document("db")/{red}descendant::name[. = "Item 450"]`
	navigational := 0
	for _, text := range []string{
		point,
		`document("db")/{red}descendant::item/{red}child::name`,
		`document("db")/{red}descendant::item[{red}child::name = "Item 450"]/{red}child::name`,
		`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`,
		`for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`,
		point + `/{red}parent::item/{green}child::votes`,
	} {
		c, err := plan.CompileQuery(text, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if strings.Contains(engine.Explain(c.Root), "NavJoin") {
			navigational++
		}
		checkDedupVariants(t, text, s, c)
		rows, _, err := engine.Exec(s, c.Root)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, r := range rows {
			content, err := s.ContentOf(r[c.OutCol].Elem)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, content)
		}
		out, err := mcxquery.NewEvaluator(db).Query(text)
		if err != nil {
			t.Fatalf("%s: evaluator: %v", text, err)
		}
		for _, it := range out {
			want = append(want, pathexpr.ItemString(it))
		}
		if len(got) == 0 || !equalStrings(got, want) {
			t.Errorf("%s:\ncompiled  %d rows %v\nevaluator %d rows %v", text, len(got), trim(got), len(want), trim(want))
		}
	}
	if navigational != 3 {
		t.Errorf("%d of the six classes compile to navigational plans, want the three selective ones", navigational)
	}
}
