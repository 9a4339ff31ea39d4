package pathexpr

import (
	"strings"
	"testing"
)

func mustParseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", src, err)
	}
	return e
}

func TestParseColoredSteps(t *testing.T) {
	e := mustParseExpr(t, `document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]`)
	p, ok := e.(*PathExpr)
	if !ok {
		t.Fatalf("want *PathExpr, got %T", e)
	}
	if p.Doc != "mdb.xml" {
		t.Fatalf("Doc = %q", p.Doc)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	s := p.Steps[0]
	if s.Color != "red" || s.Axis != AxisDescendant || s.Test.Name != "movie-genre" {
		t.Fatalf("step = %+v", s)
	}
	if len(s.Preds) != 1 {
		t.Fatalf("preds = %d", len(s.Preds))
	}
	b, ok := s.Preds[0].(*Binary)
	if !ok || b.Op != OpEq {
		t.Fatalf("pred = %+v", s.Preds[0])
	}
	inner, ok := b.L.(*PathExpr)
	if !ok || inner.Steps[0].Color != "red" || inner.Steps[0].Axis != AxisChild {
		t.Fatalf("pred path = %+v", b.L)
	}
}

func TestParseMultiColorPath(t *testing.T) {
	// Query Q4's path: colors change across steps.
	src := `document("mdb.xml")/{green}descendant::movie-award/{green}descendant::movie[{green}child::votes > 10]/{red}child::movie-role/{blue}parent::actor`
	p := mustParseExpr(t, src).(*PathExpr)
	if len(p.Steps) != 4 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	wantColors := []string{"green", "green", "red", "blue"}
	wantAxes := []Axis{AxisDescendant, AxisDescendant, AxisChild, AxisParent}
	for i, s := range p.Steps {
		if string(s.Color) != wantColors[i] || s.Axis != wantAxes[i] {
			t.Errorf("step %d = %v (color %q)", i, s.Axis, s.Color)
		}
	}
}

func TestParseAbbreviations(t *testing.T) {
	p := mustParseExpr(t, `$m/{red}name`).(*PathExpr)
	if p.Var != "m" || p.Steps[0].Axis != AxisChild || p.Steps[0].Test.Name != "name" {
		t.Fatalf("parsed: %+v", p)
	}
	p = mustParseExpr(t, `$m/{red}@id`).(*PathExpr)
	if p.Steps[0].Axis != AxisAttribute || p.Steps[0].Test.Name != "id" {
		t.Fatalf("@abbrev: %+v", p.Steps[0])
	}
	p = mustParseExpr(t, `$m/{red}..`).(*PathExpr)
	if p.Steps[0].Axis != AxisParent || p.Steps[0].Test.Kind != TestNode {
		t.Fatalf("..: %+v", p.Steps[0])
	}
	e := mustParseExpr(t, `.`)
	if _, ok := e.(*ContextItem); !ok {
		t.Fatalf(". = %T", e)
	}
	p = mustParseExpr(t, `./{red}child::name`).(*PathExpr)
	if p.Steps[0].Axis != AxisSelf || p.Steps[1].Axis != AxisChild {
		t.Fatalf("./: %+v", p)
	}
	p = mustParseExpr(t, `$m/{red}*`).(*PathExpr)
	if p.Steps[0].Test.Kind != TestStar {
		t.Fatalf("*: %+v", p.Steps[0])
	}
}

func TestParseDoubleSlash(t *testing.T) {
	p := mustParseExpr(t, `document("x")//{red}movie`).(*PathExpr)
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want descendant-or-self + child", len(p.Steps))
	}
	if p.Steps[0].Axis != AxisDescendantOrSelf || p.Steps[0].Test.Kind != TestNode {
		t.Fatalf("implicit step = %+v", p.Steps[0])
	}
	if p.Steps[0].Color != "red" {
		t.Fatalf("implicit step color = %q, want inherited red", p.Steps[0].Color)
	}
	p = mustParseExpr(t, `$m//{blue}actor`).(*PathExpr)
	if len(p.Steps) != 2 || p.Steps[0].Color != "blue" {
		t.Fatalf("var //: %+v", p)
	}
}

func TestParseNodeTests(t *testing.T) {
	cases := map[string]TestKind{
		`$m/{red}child::node()`:                   TestNode,
		`$m/{red}child::text()`:                   TestText,
		`$m/{red}child::comment()`:                TestComment,
		`$m/{red}child::processing-instruction()`: TestPI,
		`$m/{red}child::*`:                        TestStar,
	}
	for src, want := range cases {
		p := mustParseExpr(t, src).(*PathExpr)
		if p.Steps[0].Test.Kind != want {
			t.Errorf("%s: kind = %v, want %v", src, p.Steps[0].Test.Kind, want)
		}
	}
	p := mustParseExpr(t, `$m/{red}child::processing-instruction("tgt")`).(*PathExpr)
	if p.Steps[0].Test.Name != "tgt" {
		t.Fatalf("pi target = %q", p.Steps[0].Test.Name)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	e := mustParseExpr(t, `1 + 2 * 3 = 7 and not(false())`)
	b, ok := e.(*Binary)
	if !ok || b.Op != OpAnd {
		t.Fatalf("top = %+v", e)
	}
	cmp := b.L.(*Binary)
	if cmp.Op != OpEq {
		t.Fatalf("left of and = %v", cmp.Op)
	}
	add := cmp.L.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("add = %v", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != OpMul {
		t.Fatalf("mul = %v", mul.Op)
	}
}

func TestParseFunctionCalls(t *testing.T) {
	e := mustParseExpr(t, `contains($m/{red}child::name, "Eve")`)
	c, ok := e.(*Call)
	if !ok || c.Name != "contains" || len(c.Args) != 2 {
		t.Fatalf("call = %+v", e)
	}
	e = mustParseExpr(t, `count(document("x")/{red}descendant::movie) > 2`)
	if b, ok := e.(*Binary); !ok || b.Op != OpGt {
		t.Fatalf("count cmp = %+v", e)
	}
}

func TestParsePositionalPredicate(t *testing.T) {
	p := mustParseExpr(t, `$m/{red}child::movie[2]`).(*PathExpr)
	lit, ok := p.Steps[0].Preds[0].(*Literal)
	if !ok || lit.Val != int64(2) {
		t.Fatalf("positional pred = %+v", p.Steps[0].Preds[0])
	}
	p = mustParseExpr(t, `$m/{red}child::movie[position() = last()]`).(*PathExpr)
	if len(p.Steps[0].Preds) != 1 {
		t.Fatal("pred missing")
	}
}

func TestParseXQueryComments(t *testing.T) {
	e := mustParseExpr(t, `(: pick a movie :) $m/{red}child::name (: done :)`)
	if _, ok := e.(*PathExpr); !ok {
		t.Fatalf("with comments: %T", e)
	}
}

func TestParseStringColorLiteral(t *testing.T) {
	p := mustParseExpr(t, `$m/{"dark-red"}child::name`).(*PathExpr)
	if p.Steps[0].Color != "dark-red" {
		t.Fatalf("quoted color = %q", p.Steps[0].Color)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`$`,
		`$m/`,
		`$m/{`,
		`$m/{red`,
		`$m/{red}`,
		`$m/{red}child::`,
		`$m/{3}child::a`,
		`document(x)/{red}child::a`,
		`"unterminated`,
		`$m/{red}child::a[`,
		`$m/{red}child::a[1`,
		`1 +`,
		`foo(1,`,
		`$m $n`,
		`#`,
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

// TestParsePathRejectsNonPath: arithmetic does not parse as a path
// expression; a rooted path does, with its document.
func TestParsePathRejectsNonPath(t *testing.T) {
	if e, err := ParseString(`1 + 2`); err != nil {
		t.Fatal(err)
	} else if _, ok := e.(*PathExpr); ok {
		t.Fatalf("arithmetic parsed as a path: %v", e)
	}
	e, err := ParseString(`document("x")/{red}child::a`)
	if p, ok := e.(*PathExpr); err != nil || !ok || p.Doc != "x" {
		t.Fatalf("ParseString: %v %+v", err, e)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/{red}descendant::movie`,
		`$m/{green}child::votes`,
		`$a/{blue}parent::actor[{blue}child::name = "Bette Davis"]`,
	}
	for _, src := range srcs {
		e := mustParseExpr(t, src)
		rendered := e.String()
		e2, err := ParseString(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if e2.String() != rendered {
			t.Fatalf("unstable render: %q vs %q", e2.String(), rendered)
		}
	}
}

func TestCountPathsAndSteps(t *testing.T) {
	e := mustParseExpr(t, `contains($m/{red}child::name, "Eve") and $m/{green}child::votes > 10`)
	if got := CountPaths(e); got != 2 {
		t.Fatalf("CountPaths = %d, want 2", got)
	}
	if got := CountSteps(e); got != 2 {
		t.Fatalf("CountSteps = %d, want 2", got)
	}
	// Predicates count too.
	e = mustParseExpr(t, `document("x")/{red}descendant::movie[{red}child::name = "Eve"]`)
	if got := CountPaths(e); got != 2 {
		t.Fatalf("CountPaths with pred = %d, want 2", got)
	}
	if got := CountSteps(e); got != 2 {
		t.Fatalf("CountSteps with pred = %d", got)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := ParseString(`$m/{red}child::a[`)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error should carry offset: %v", err)
	}
}

// TestQuoteParsesBack: a string literal prints as an expression that parses
// and evaluates back to its text and prints the same again, whichever quote
// kinds the text holds.
func TestQuoteParsesBack(t *testing.T) {
	for _, s := range []string{"", "plain", `say "hi"`, "it's", `it's "hi"`, `"'`, `'"'"`, `a"b'c"d'e`} {
		printed := (&Literal{Val: s}).String()
		e := mustParseExpr(t, printed)
		if e.String() != printed {
			t.Errorf("%q prints as %s, which prints as %s", s, printed, e)
		}
		v, err := Eval(&Env{}, e)
		if err != nil || len(v) != 1 || v[0].Atom != s {
			t.Errorf("%q prints as %s, which evaluates to %v, %v", s, printed, v, err)
		}
	}
}
