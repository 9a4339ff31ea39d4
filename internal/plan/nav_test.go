package plan_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/plan"
)

// fakeCatalog serves fixed cardinalities: tags by "{color}tag", equality
// cards by "{color}tag=value" (default 1).
type fakeCatalog struct {
	tags map[string]float64
	eqs  map[string]float64
}

func (f fakeCatalog) TagCard(c core.Color, tag string) float64 {
	return f.tags[fmt.Sprintf("{%s}%s", c, tag)]
}

func (f fakeCatalog) EqCard(c core.Color, tag, value string) float64 {
	if v, ok := f.eqs[fmt.Sprintf("{%s}%s=%s", c, tag, value)]; ok {
		return v
	}
	return 1
}

func explainWith(t *testing.T, cat plan.Catalog, src string) string {
	t.Helper()
	c, err := plan.CompileQuery(src, plan.Options{Catalog: cat})
	if err != nil {
		t.Fatalf("compile %s: %v", src, err)
	}
	return engine.Explain(c.Root)
}

// TestNavLoweringChoice: the access-path choice per step and per path
// predicate, against fixed cardinalities.
func TestNavLoweringChoice(t *testing.T) {
	cat := fakeCatalog{
		tags: map[string]float64{"{red}item": 20000, "{red}name": 20000, "{red}tag": 20000, "{green}item": 6667, "{green}votes": 6667},
		eqs:  map[string]float64{"{red}name=common": 15000, "{red}tag=hot": 5000},
	}
	for _, c := range []struct {
		name, src  string
		has, lacks []string
	}{
		{
			"an outer of one row navigates up, across and down",
			`document("db")/{red}descendant::name[. = "x"]/{red}parent::item/{green}child::votes`,
			[]string{"NavJoin[col 0 parent::{red}item]", "NavJoin[col 2 child::{green}votes]", "SortStart[col 3]"},
			[]string{"ScanTag", "StructJoin"},
		},
		{
			"an outer the size of the tag population merges",
			`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`,
			[]string{"StructJoin[merge parent-child, anc col 0, desc col 0]", "ScanTag{green}item", "ScanTag{green}votes"},
			[]string{"NavJoin", "Dedup"},
		},
		{
			"an outer of most of the population merges on the way up, too",
			`document("db")/{red}descendant::name[. = "common"]/{red}parent::item`,
			[]string{"Dedup[col 0]\n  StructJoin[merge parent-child, anc col 0, desc col 0]\n    ScanTag{red}item\n    EqContent{red}name=\"common\""},
			[]string{"NavJoin"},
		},
		{
			"a one-row probe against a 20 000-row scan drives the step",
			`document("db")/{red}descendant::item[{red}child::name = "x"]`,
			[]string{"Dedup[col 0, ordered]\n  SortStart[col 0]\n    Project[1]\n      NavJoin[col 0 parent::{red}item]\n        EqContent{red}name=\"x\"\n"},
			[]string{"ScanTag", "ExistsJoin"},
		},
		{
			"a descendant predicate navigates to every enclosing node",
			`document("db")/{red}descendant::item[{red}descendant::name = "x"]`,
			[]string{"NavJoin[col 0 ancestor::{red}item]"},
			[]string{"ScanTag", "ExistsJoin"},
		},
		{
			"a probe of most of the population stays a semi-join under the scan",
			`document("db")/{red}descendant::item[{red}child::name = "common"]`,
			[]string{"ExistsJoin", "ScanTag{red}item", "EqContent{red}name=\"common\""},
			[]string{"NavJoin"},
		},
		{
			"of two path predicates the smaller probe drives; the other is then checked by navigating from the one row left",
			`document("db")/{red}descendant::item[{red}child::tag = "hot" and {red}child::name = "x"]`,
			[]string{"NavJoin[col 0 parent::{red}item]\n                EqContent{red}name=\"x\"", "Filter[col 1 eq \"hot\"]\n      NavJoin[col 0 child::{red}tag]"},
			[]string{"ScanTag", "ExistsJoin", "EqContent{red}tag"},
		},
		{
			"a small outer with a large probe navigates from the outer and filters",
			`document("db")/{red}descendant::name[. = "x"]/{red}parent::item[{red}child::tag = "hot"]`,
			[]string{"Uniq\n    Project[0 1]\n      Filter[col 2 eq \"hot\"]\n        NavJoin[col 1 child::{red}tag]"},
			[]string{"ExistsJoin", "ScanTag", "EqContent{red}tag"},
		},
		{
			"a predicate in another colour keeps the scan (the probe cannot drive across colours)",
			`document("db")/{green}descendant::item[{red}child::name = "x"]`,
			[]string{"ScanTag{green}item", "CrossColor[col 0 -> red]", "ExistsJoin"},
			[]string{"NavJoin"},
		},
		{
			"the first step of a chain is an index scan as before",
			`document("db")/{red}descendant::name[. = "x"]`,
			[]string{"EqContent{red}name=\"x\"\n"},
			[]string{"NavJoin", "SortStart", "Dedup"},
		},
	} {
		ex := explainWith(t, cat, c.src)
		for _, h := range c.has {
			if !strings.Contains(ex, h) {
				t.Errorf("%s:\n%s\nplan lacks %q:\n%s", c.name, c.src, h, ex)
			}
		}
		for _, l := range c.lacks {
			if strings.Contains(ex, l) {
				t.Errorf("%s:\n%s\nplan should not contain %q:\n%s", c.name, c.src, l, ex)
			}
		}
	}
	// A reverse axis at the root has nothing to navigate from.
	if _, err := plan.CompileQuery(`document("db")/{red}parent::item`, plan.Options{Catalog: cat}); err == nil {
		t.Error("a path that begins with a reverse axis should stay unsupported")
	}
}

// TestNavCrossover pins the cardinality at which a step flips from
// navigation to the merge join on a 20 000-node tag: costNavProbe = 15 puts
// it at 20 000 / (15 - 2.5) = 1 600 outer rows for a reverse step.
func TestNavCrossover(t *testing.T) {
	for _, c := range []struct {
		outer float64
		nav   bool
	}{{1, true}, {1000, true}, {1599, true}, {1600, false}, {6667, false}, {20000, false}} {
		cat := fakeCatalog{
			tags: map[string]float64{"{red}item": 20000, "{red}name": 20000},
			eqs:  map[string]float64{"{red}name=x": c.outer},
		}
		ex := explainWith(t, cat, `document("db")/{red}descendant::name[. = "x"]/{red}parent::item`)
		if got := strings.Contains(ex, "NavJoin"); got != c.nav {
			t.Errorf("outer of %v rows: navigational = %v, want %v:\n%s", c.outer, got, c.nav, ex)
		}
	}
}

// benchClasses are the six query classes of bench/data.go on the 20 000-item
// catalog, with the plans they compile to. The three selective classes scan
// no tag population; every class but hop has an output column that is
// distinct by construction and so no final Dedup (hop's items could share
// a parent, for all the compiler knows). Green items never nest, so flwor is
// the path //item/votes, one summary probe; crosscolor's navigation from its
// ordered bindings already emits the FLWOR's binding order, unsorted.
var benchClasses = []struct{ name, text, plan string }{
	{"point", `document("db")/{red}descendant::name[. = "Item 9999"]`, `EqContent{red}name="Item 9999"
`},
	{"pathscan", `document("db")/{red}descendant::item/{red}child::name`, `PathScan{red}//item/name
`},
	{"predjoin", `document("db")/{red}descendant::item[{red}child::name = "Item 9999"]/{red}child::name`, `SortStart[col 1]
  NavJoin[col 0 child::{red}name]
    Dedup[col 0, ordered]
      SortStart[col 0]
        Project[1]
          NavJoin[col 0 parent::{red}item]
            EqContent{red}name="Item 9999"
`},
	{"flwor", `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`, `PathScan{green}//item/votes
`},
	{"crosscolor", `for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`, `NavJoin[col 1 child::{red}name]
  CrossColor[col 0 -> red]
    Dedup[col 0, ordered]
      SortStart[col 0]
        Project[1]
          NavJoin[col 0 parent::{green}item]
            EqContent{green}votes="7"
`},
	{"hop", `document("db")/{red}descendant::name[. = "Item 9999"]/{red}parent::item/{green}child::votes`, `Dedup[col 3, ordered]
  SortStart[col 3]
    NavJoin[col 2 child::{green}votes]
      CrossColor[col 1 -> green]
        NavJoin[col 0 parent::{red}item]
          EqContent{red}name="Item 9999"
`},
}

// mergeOnly hides the store's selectivity from the compiler: every equality
// looks as large as its tag, so every step and predicate takes the
// scan+merge lowering — the plans of the parent commit, as the reference.
type mergeOnly struct{ plan.StoreCatalog }

func (m mergeOnly) EqCard(c core.Color, tag, _ string) float64 { return m.TagCard(c, tag) }

// TestBenchClassPlans: the golden plans of the six benchmark classes, and
// their results — in order — against the all-merge plans.
func TestBenchClassPlans(t *testing.T) {
	s := catalogStore(t, 20000)
	content := func(c *plan.Compiled) []string {
		rows, _, err := engine.Exec(s, c.Root.Clone())
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
	wantRows := map[string]int{"point": 1, "pathscan": 20000, "predjoin": 1, "flwor": 6667, "crosscolor": 133, "hop": 1}
	for _, bc := range benchClasses {
		c, err := plan.CompileQuery(bc.text, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
		if err != nil {
			t.Fatal(err)
		}
		if ex := engine.Explain(c.Root); ex != bc.plan {
			t.Errorf("%s compiles to\n%swant\n%s", bc.name, ex, bc.plan)
		}
		ref, err := plan.CompileQuery(bc.text, plan.Options{Catalog: mergeOnly{plan.StoreCatalog{Store: s}}})
		if err != nil {
			t.Fatal(err)
		}
		if ex := engine.Explain(ref.Root); strings.Contains(ex, "NavJoin") {
			t.Fatalf("%s: the reference plan navigates:\n%s", bc.name, ex)
		}
		got, want := content(c), content(ref)
		if len(got) != wantRows[bc.name] || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %d rows, the merge plan returns %d, the data holds %d (or the order differs)",
				bc.name, len(got), len(want), wantRows[bc.name])
		}
	}
	// crosscolor's rows are the names of items 57, 207, 357, ... in green
	// binding order, which on this catalog is red document order too.
	c, err := plan.CompileQuery(benchClasses[4].text, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range content(c) {
		if want := "Item " + strconv.Itoa(57+150*i); name != want {
			t.Fatalf("crosscolor row %d is %q, want %q", i, name, want)
		}
	}
}
