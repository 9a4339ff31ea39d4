package plan_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// compileRun compiles src against the movie database and returns the
// distinct output-column values (attribute or content per the plan).
func compileRun(t *testing.T, src string) (*plan.Compiled, []string) {
	t.Helper()
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rows, _, err := engine.Exec(s, c.Root)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	var out []string
	for _, r := range rows {
		e, err := s.Elem(r[c.OutCol].Elem)
		if err != nil {
			t.Fatal(err)
		}
		if c.OutAttr != "" {
			out = append(out, e.Attr(c.OutAttr))
		} else {
			out = append(out, e.Content)
		}
	}
	sort.Strings(out)
	return c, out
}

func TestAnalyzeFusesDescendantAbbreviation(t *testing.T) {
	e, err := mcxquery.ParseQuery(`document("db")//{red}movie`)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := plan.Analyze(e, "")
	if err != nil {
		t.Fatal(err)
	}
	steps := lg.Vars[0].Steps
	if len(steps) != 1 {
		t.Fatalf("want 1 fused step, got %d: %v", len(steps), steps)
	}
	if steps[0].Axis != pathexpr.AxisDescendant || steps[0].Tag != "movie" || steps[0].Color != "red" {
		t.Fatalf("bad fused step: %+v", steps[0])
	}
}

func TestAnalyzeColorInheritance(t *testing.T) {
	e, err := mcxquery.ParseQuery(`document("db")/{red}descendant::movie/child::name`)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := plan.Analyze(e, "")
	if err != nil {
		t.Fatal(err)
	}
	steps := lg.Vars[0].Steps
	if steps[1].Color != "red" {
		t.Fatalf("name step should inherit red, got %q", steps[1].Color)
	}
}

func TestCompilePredicateUsesContentIndex(t *testing.T) {
	c, out := compileRun(t,
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`)
	if want := []string{"Duck Soup"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	ex := engine.Explain(c.Root)
	if !strings.Contains(ex, "EqContent") {
		t.Fatalf("equality predicate should probe the content index:\n%s", ex)
	}
	if !strings.Contains(ex, "ExistsJoin") {
		t.Fatalf("child predicate should lower to a structural semijoin:\n%s", ex)
	}
}

func TestCompileCrossColorTransition(t *testing.T) {
	c, out := compileRun(t,
		`for $m in document("db")/{red}descendant::movie return $m/{green}child::votes`)
	if want := []string{"11", "14", "9"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	if !strings.Contains(engine.Explain(c.Root), "CrossColor") {
		t.Fatalf("red-to-green step must lower to a color transition:\n%s", engine.Explain(c.Root))
	}
}

func TestCompileParentAxis(t *testing.T) {
	// movie-role nodes are red and blue; their red parents are the movies.
	c, out := compileRun(t,
		`document("db")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name`)
	if want := []string{"12 Angry Men", "All About Eve", "Duck Soup", "Some Like It Hot"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	if got := c.Cols[c.OutCol].Tag; got != "name" {
		t.Fatalf("output column should be name, got %q", got)
	}
}

func TestCompileIdentityJoin(t *testing.T) {
	c, out := compileRun(t, `
	  for $m in document("db")/{red}descendant::movie
	  for $n in document("db")/{green}descendant::movie
	  where $m = $n
	  return $m/{red}child::name`)
	// Only the Oscar-nominated movies participate in green.
	if want := []string{"12 Angry Men", "All About Eve", "Some Like It Hot"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	if !strings.Contains(engine.Explain(c.Root), "IDJoin") {
		t.Fatalf("identity join expected:\n%s", engine.Explain(c.Root))
	}
}

func TestCompileInequalityJoin(t *testing.T) {
	c, out := compileRun(t, `
	  for $a in document("db")/{green}descendant::movie
	  for $b in document("db")/{green}descendant::movie
	  where $a/{green}child::votes > $b/{green}child::votes
	  return $a/{green}child::name`)
	// 14 and 11 votes beat somebody; 9 does not.
	if want := []string{"All About Eve", "Some Like It Hot"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	if !strings.Contains(engine.Explain(c.Root), "NLJoin") {
		t.Fatalf("inequality join expected:\n%s", engine.Explain(c.Root))
	}
}

func TestCompileVarRootedBinding(t *testing.T) {
	_, out := compileRun(t, `
	  for $g in document("db")/{red}descendant::movie-genre[{red}child::name = "Comedy"]
	  for $m in $g/{red}descendant::movie
	  return $m/{red}child::name`)
	// Duck Soup is under Slapstick, which nests inside Comedy.
	if want := []string{"All About Eve", "Duck Soup", "Some Like It Hot"}; !equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestCompiledAgreesWithEvaluator(t *testing.T) {
	queries := []string{
		`document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]/{red}child::name`,
		`for $m in document("db")/{red}descendant::movie return $m/{green}child::votes`,
		`for $m in document("db")/{red}descendant::movie
		 for $n in document("db")/{green}descendant::movie
		 where $m = $n return $m/{red}child::name`,
	}
	for _, src := range queries {
		_, compiled := compileRun(t, src)
		m := fixtures.NewMovieDB()
		seq, err := mcxquery.NewEvaluator(m.DB).Query(src)
		if err != nil {
			t.Fatalf("evaluator: %v", err)
		}
		var ref []string
		for _, it := range seq {
			s, _ := core.StringValue(it.Node, it.Color)
			ref = append(ref, s)
		}
		ref = distinct(ref)
		if !equal(compiled, ref) {
			t.Errorf("compiled %v != evaluator %v for %s", compiled, ref, src)
		}
	}
}

func TestUnsupportedConstructsReportErrUnsupported(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`for $m in document("db")/{red}descendant::movie
		 let $n := $m/{red}child::name return $n`,
		`for $m in document("db")/{red}descendant::movie
		 order by $m/{red}child::name return $m`,
		`distinct-values(document("db")/{red}descendant::movie)`,
	} {
		_, cerr := plan.CompileQuery(src, plan.Options{Catalog: plan.StoreCatalog{Store: s}})
		if !errors.Is(cerr, plan.ErrUnsupported) {
			t.Errorf("want ErrUnsupported for %s, got %v", src, cerr)
		}
	}
}

func equal(a, b []string) bool {
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

func distinct(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
