package workload_test

import (
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
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
	"colorfulxml/internal/workload"
)

// orderUndefined lists the cells whose result order the compiled plan and
// the evaluator define differently, so only the sets are compared. TQ16's
// MCT path ends by stepping from a {billing} orderline to its {author}
// parent: the evaluator sorts that last step's nodes into author-tree
// document order, the plan keeps the orderlines' billing-tree order.
var orderUndefined = map[string]bool{"TQ16/MCT": true}

// dataset is one generated entity pool with its stores, and a way to build
// a fresh copy of each representation's database for the evaluator (whose
// constructors and updates mutate it).
type dataset struct {
	queries []*workload.Query
	updates []*workload.UpdateSpec
	st      *workload.Stores
	build   map[workload.Variant]func() (*core.Database, error)
}

func datasets(t *testing.T) []dataset {
	t.Helper()
	tp, err := workload.LoadTPCW(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.LoadSigmod(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, s := tp.Params.E, sg.Params.S
	return []dataset{
		{workload.TPCWQueries(), workload.TPCWUpdates(), tp, map[workload.Variant]func() (*core.Database, error){
			workload.MCT:     func() (*core.Database, error) { return datagen.BuildTPCWMCT(e) },
			workload.Shallow: func() (*core.Database, error) { return datagen.BuildTPCWShallow(e) },
			workload.Deep:    func() (*core.Database, error) { return datagen.BuildTPCWDeep(e) },
		}},
		{workload.SigmodQueries(), workload.SigmodUpdates(), sg, map[workload.Variant]func() (*core.Database, error){
			workload.MCT:     func() (*core.Database, error) { return datagen.BuildSigmodMCT(s) },
			workload.Shallow: func() (*core.Database, error) { return datagen.BuildSigmodShallow(s) },
			workload.Deep:    func() (*core.Database, error) { return datagen.BuildSigmodDeep(s) },
		}},
	}
}

// defaultColor is the evaluator's color for the uncolored texts of the
// single-hierarchy representations.
func defaultColor(v workload.Variant) core.Color {
	if v == workload.MCT {
		return ""
	}
	return datagen.ColDoc
}

// TestDifferentialCompiledPlans compiles every Table 2 query TEXT on every
// representation and runs it on the store, and runs the same text on the
// reference tree-walking evaluator over the logical database. The two must
// return the same distinct values in order of first appearance (compiled
// plans return each output node once; the evaluator returns one item per
// binding), so an access-path choice that reordered a result would show
// here. Every plan also runs with its final duplicate elimination varied
// (checkDedupVariants).
func TestDifferentialCompiledPlans(t *testing.T) {
	nonEmpty := 0
	dedups := map[string]int{}
	for _, d := range datasets(t) {
		for _, q := range d.queries {
			for _, v := range workload.Variants {
				name := fmt.Sprintf("%s/%s", q.ID, v)
				c, err := workload.Compile(q, d.st, v)
				if err != nil {
					t.Errorf("%s: compile: %v", name, err)
					continue
				}
				checkDedupVariants(t, name, d.st.Of(v), c)
				switch dd, _ := c.Root.(*engine.Dedup); {
				case c.Distinct:
					dedups["elided"]++
				case dd.Ordered:
					dedups["ordered"]++
				default:
					dedups["sorting"]++
				}
				values, _, err := workload.Run(c, d.st.Of(v))
				if err != nil {
					t.Fatalf("%s: run: %v", name, err)
				}

				db, err := d.build[v]()
				if err != nil {
					t.Fatal(err)
				}
				ev := mcxquery.NewEvaluator(db)
				ev.DefaultColor = defaultColor(v)
				out, err := ev.Query(workload.FaithfulText(q.ID, q.Text[v], d.st.Params))
				if err != nil {
					t.Fatalf("%s: evaluator: %v", name, err)
				}
				ref := itemValues(t, name, out, c.OutAttr)
				cv, rv := distinctInOrder(values), distinctInOrder(ref)
				if orderUndefined[name] {
					sort.Strings(cv)
					sort.Strings(rv)
				}
				if !equalStrings(cv, rv) {
					t.Errorf("%s: compiled %d values %v\n  != evaluator %d values %v",
						name, len(cv), trim(cv), len(rv), trim(rv))
				}
				if len(cv) > 0 {
					nonEmpty++
				}
			}
		}
	}
	// Every way of making the output distinct must have been exercised.
	if dedups["elided"] == 0 || dedups["ordered"] == 0 || dedups["sorting"] == 0 {
		t.Errorf("final duplicate elimination by kind: %v, want some of each", dedups)
	}
	// Guard against vacuous agreement: every cell selects something.
	if nonEmpty != 63 {
		t.Errorf("%d of 63 cells return values; substitutions broken?", nonEmpty)
	}
}

// TestDifferentialLogicalVsPhysical cross-checks Table 2's own entry point,
// workload.RunQuery over the Timber-style store, with the reference
// tree-walking evaluator over the logical database, on the TPC-W MCT texts
// of one color or of color transitions by path. Both must return the same
// sorted values.
func TestDifferentialLogicalVsPhysical(t *testing.T) {
	checkRunQuery(t, workload.MCT, "TQ1", "TQ2", "TQ5", "TQ8", "TQ9", "TQ11", "TQ13")
}

// TestDifferentialShallowTexts does the same for shallow value-join
// formulations: the evaluator runs the where-clause joins over the shallow
// database, RunQuery the compiled value-join plan over the shallow store.
func TestDifferentialShallowTexts(t *testing.T) {
	checkRunQuery(t, workload.Shallow, "TQ9", "TQ11", "TQ2")
}

func checkRunQuery(t *testing.T, v workload.Variant, ids ...string) {
	t.Helper()
	d := datasets(t)[0]
	for _, id := range ids {
		q := findQuery(t, id)
		physical, _, err := workload.RunQuery(q, d.st, v)
		if err != nil {
			t.Fatalf("%s/%s physical: %v", id, v, err)
		}
		c, err := workload.Compile(q, d.st, v)
		if err != nil {
			t.Fatal(err)
		}
		// The constructors mutate the database: a fresh one per text.
		db, err := d.build[v]()
		if err != nil {
			t.Fatal(err)
		}
		ev := mcxquery.NewEvaluator(db)
		ev.DefaultColor = defaultColor(v)
		out, err := ev.Query(workload.FaithfulText(q.ID, q.Text[v], d.st.Params))
		if err != nil {
			t.Fatalf("%s/%s logical: %v", id, v, err)
		}
		logical := itemValues(t, id, out, c.OutAttr)
		phys := append([]string(nil), physical...)
		sort.Strings(logical)
		sort.Strings(phys)
		if len(phys) == 0 || !equalStrings(logical, phys) {
			t.Errorf("%s/%s: logical %d values %v\n  != physical %d values %v", id, v, len(logical), trim(logical), len(phys), trim(phys))
		}
	}
}

// itemValues renders the evaluator's result items as the compiled plan
// renders its rows: the value of the attribute the text projects — returned
// as is, or copied onto a constructed element — or the string value.
func itemValues(t *testing.T, name string, items pathexpr.Sequence, attr string) []string {
	t.Helper()
	var out []string
	for _, it := range items {
		if it.Node == nil {
			t.Fatalf("%s: evaluator result is not a node: %+v", name, it)
		}
		if attr == "" {
			out = append(out, pathexpr.ItemString(it))
			continue
		}
		attrs := it.Node.Attributes()
		if it.Node.Kind() == core.KindAttribute {
			attrs = []*core.Node{it.Node}
		}
		for _, a := range attrs {
			if a.Name() == attr {
				out = append(out, a.Value())
			}
		}
	}
	return out
}

// TestDifferentialCompiledUpdates runs every Table 2 update TEXT on every
// representation twice: the way Table 2 does (workload.RunUpdate: a compiled
// bind on the store, the operations on the database, the change log replayed
// onto the store) and through the tree-walking Bind on a twin database. The
// two must touch the same nodes and leave isomorphic databases. The updates
// of a dataset run in sequence on the same databases.
func TestDifferentialCompiledUpdates(t *testing.T) {
	for _, d := range datasets(t) {
		for _, v := range workload.Variants {
			twin, err := d.build[v]()
			if err != nil {
				t.Fatal(err)
			}
			x := update.NewExecutor(twin)
			x.DefaultColor = defaultColor(v)
			for _, u := range d.updates {
				name := fmt.Sprintf("%s/%s", u.ID, v)
				compiled, err := workload.RunUpdate(u, d.st, v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				parsed, err := update.Parse(workload.FaithfulText(u.ID, u.Text[v], d.st.Params))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tuples, err := x.Bind(parsed)
				if err != nil {
					t.Fatalf("%s: tree-walking bind: %v", name, err)
				}
				walked, err := x.ApplyTuples(parsed, tuples)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if compiled != walked || compiled.NodesTouched == 0 {
					t.Errorf("%s: %+v through the compiled bind, %+v through the evaluator", name, compiled, walked)
				}
				if ok, why := serialize.Isomorphic(d.st.DB(v), twin); !ok {
					t.Fatalf("%s: databases diverge: %s", name, why)
				}
			}
		}
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
		ids, _, err := engine.ExecColumn(nil, s, nil, c.Root.Clone(), c.OutCol, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, id := range ids {
			content, err := s.ContentOf(id)
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

// inflated makes the listed tags look a thousand times more numerous than
// they are, so a step to them from a FLWOR's bindings navigates instead of
// merging. It hides the path summary, too: nothing folds.
type inflated struct {
	plan.Catalog
	tags map[string]bool
}

func (c inflated) TagCard(col core.Color, tag string) float64 {
	if c.tags[tag] {
		return 1000 * c.Catalog.TagCard(col, tag)
	}
	return c.Catalog.TagCard(col, tag)
}

// flworFixture builds a red catalog of items with a name and an attribute k,
// adopted into green in reverse order, each with a green votes leaf. With
// nested, item 1 sits inside item 0, between item 0's two names.
func flworFixture(t *testing.T, nested bool) *core.Database {
	t.Helper()
	db := core.NewDatabase("red", "green")
	must := func(n *core.Node, err error) *core.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	name := func(item *core.Node, v string) {
		n := must(db.AddElementText(item, "name", "red", v))
		must(db.SetAttribute(n, "lang", "l-"+v))
	}
	catalog := must(db.AddElement(db.Document(), "catalog", "red"))
	featured := must(db.AddElement(db.Document(), "featured", "green"))
	var items []*core.Node
	for k := 0; k < 4; k++ {
		parent := catalog
		if nested && k == 1 {
			parent = items[0]
		}
		item := must(db.AddElement(parent, "item", "red"))
		must(db.SetAttribute(item, "k", fmt.Sprint(k)))
		name(item, fmt.Sprintf("n%d", k))
		items = append(items, item)
	}
	if nested {
		name(items[0], "n0b")
	}
	for k := len(items) - 1; k >= 0; k-- {
		if err := db.Adopt(featured, items[k], "green"); err != nil {
			t.Fatal(err)
		}
		must(db.AddElementText(items[k], "votes", "green", fmt.Sprintf("v%d", k)))
	}
	return db
}

// TestDifferentialOneVariableFlwor: one-variable FLWOR returns — child,
// descendant, under a where filter, across colours, projected to an
// attribute — return the evaluator's answer in the evaluator's order, on a
// catalog whose items nest and on one whose colours order the items
// differently, whether the FLWOR folds into its path, sorts its join into
// binding order, or navigates in it. The one deviation: with nested bindings,
// a descendant return reaches item 1's name from both items, and the
// evaluator returns it twice where the plan returns each node once.
func TestDifferentialOneVariableFlwor(t *testing.T) {
	const items = `for $i in document("db")/{red}descendant::item`
	texts := []string{
		items + ` return $i/{red}child::name`,
		items + ` return $i/{red}descendant::name`,
		items + ` where $i/@k != "2" return $i/{red}child::name`,
		`for $i in document("db")/{green}descendant::item return $i/{red}child::name`,
		items + ` return $i/{red}child::name/@lang`,
		`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`,
	}
	shapes := map[string]int{}
	for _, nested := range []bool{true, false} {
		db := flworFixture(t, nested)
		s, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		catalogs := map[string]plan.Catalog{
			"store":      plan.StoreCatalog{Store: s},
			"no summary": struct{ plan.Catalog }{plan.StoreCatalog{Store: s}},
			"navigating": inflated{plan.StoreCatalog{Store: s}, map[string]bool{"name": true, "votes": true}},
		}
		for _, text := range texts {
			out, err := mcxquery.NewEvaluator(db).Query(text)
			if err != nil {
				t.Fatalf("%s: evaluator: %v", text, err)
			}
			for catName, cat := range catalogs {
				name := fmt.Sprintf("nested=%v %s [%s]", nested, text, catName)
				c, err := plan.CompileQuery(text, plan.Options{Catalog: cat})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch ex := engine.Explain(c.Root); {
				case c.Folded != "":
					shapes["folded"]++
				case strings.Contains(ex, "TupleOrder"):
					shapes["sorted"]++
				default:
					shapes["in order"]++
				}
				checkDedupVariants(t, name, s, c)
				got, _, err := workload.Run(c, s)
				if err != nil {
					t.Fatal(err)
				}
				want := itemValues(t, name, out, c.OutAttr)
				if nested && text == texts[1] {
					pinned := []string{"n0", "n1", "n0b", "n1", "n2", "n3"}
					if !equalStrings(want, pinned) {
						t.Errorf("%s: the evaluator returns %v, pinned %v", name, want, pinned)
					}
					want = distinctInOrder(want)
				}
				if len(got) == 0 || !equalStrings(got, want) {
					t.Errorf("%s:\ncompiled  %v\nevaluator %v\n%s", name, got, want, engine.Explain(c.Root))
				}
			}
		}
	}
	if shapes["folded"] == 0 || shapes["sorted"] == 0 || shapes["in order"] == 0 {
		t.Errorf("plans by how they order the answer: %v, want some of each", shapes)
	}
}
