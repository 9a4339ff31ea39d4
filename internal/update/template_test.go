package update

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/serialize"
)

// updateCorpus returns every update text written out in the module's Go
// files — the constant strings, and sums of them, that contain "update $":
// the tests', the examples' and the workloads' — followed by the repository
// benchmark's three shapes (bench/data.go builds them at run time) and texts
// that try the corners of literal filling. The module's crash harness
// drives the facade's mutators and writes no update text.
func updateCorpus(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var texts []string
	add := func(s string) {
		if strings.Contains(s, "update $") && !seen[s] {
			seen[s] = true
			texts = append(texts, s)
		}
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			s, ok := constString(e)
			if ok {
				add(s)
			}
			return !ok
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) < 50 {
		t.Fatalf("found %d update texts in the module, expected more", len(texts))
	}
	forItem := `for $n in document("db")/{red}descendant::name[. = "Item 42"], $i in $n/{red}parent::item`
	for _, s := range []string{
		forItem + `, $v in $i/{green}child::votes update $i { replace $v with "57" }`,
		forItem + ` update $i { insert <tag>t5</tag> }`,
		forItem + `, $t in $i/{red}child::tag[. = "t5"] update $i { delete $t }`,
		// quotes of one kind inside the other, numbers, entities in
		// constructor text and in a direct constructor's attribute
		`for $i in document("db")//item[name = 'say "hi"'] update $i { replace $i/name with "it's" }`,
		`for $i in document("db")//item[votes > 10][2] where $i/cost <= 2.5 update $i { replace $i/votes with 7 }`,
		`for $i in document("db")//item update $i { insert <note kind="a &amp; b">fish &amp; chips &lt;3</note> }`,
		attrEntityText,
		attrQuotesText,
		`for $i in document("db")//item update $i { insert <p>x <b>y</b> z { $i/name } w</p> }`,
		`let $d := document("db") for $i in $d//item[-1 + 2] where $i/name != "" update $i { rename $i/name to label }`,
		`for $i in document("db")/{red}descendant::item, $n in $i/{red}child::name update $i { insert <tag>new</tag> before $n, insert <tag>last</tag> after $n }`,
		`for $i in document("db")//item update $i { insert <r>{ if ($i/votes = "3") then "yes" else ("no", 4) }</r> }`,
		`for $i in document("db")//item update $i { insert <r>{ for $j in $i/name where $j = "Item 1" order by $j return $j }</r> }`,
		`for $i in document("db")//item update $i { replace $i/name with concat("a", "b", 3) }`,
		// texts that do not lex, and texts that lex but do not parse
		`for $i in document("db")//item update $i { replace $i/name with "unterminated }`,
		`for $i in document("db")//item update $i { insert <a>t</b> }`,
		`for $i in document("db")//item update $i { replace $i/name with 1.2.3 }`,
		`for $i in document("db")//item update $i { replace $i/name with # }`,
		`for $i in document("db")//item update $i { frobnicate "x" }`,
		`for $i in document("db")//item update $i { delete "x" `,
		`update $i { delete $i }`,
	} {
		add(s)
	}
	return texts
}

// Corpus texts whose direct constructor's attribute value holds an entity,
// and one that holds both quote kinds.
const (
	attrEntityText = `for $i in document("db")/{red}descendant::item update $i { insert <note kind="a &amp; b">fish</note> }`
	attrQuotesText = `for $i in document("db")/{red}descendant::item update $i { insert <note kind="it's &quot;so&quot;"/> }`
)

// constString folds a string literal, or a sum of them, to its value.
func constString(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		l, ok := constString(x.X)
		if !ok {
			return "", false
		}
		r, ok := constString(x.Y)
		return l + r, ok
	case *ast.ParenExpr:
		return constString(x.X)
	}
	return "", false
}

// variant returns a text of src's shape whose literals with a slot all
// differ from src's: a "v" added to each string and each run of constructor
// text, a 1 to each number. Literals without one — a document name, say —
// stay, so src can be filled from the variant's template.
func variant(src string, lits []pathexpr.Token, fixed []bool) string {
	for i := len(lits) - 1; i >= 0; i-- {
		l := lits[i]
		if fixed[i] {
			continue
		}
		var end int
		switch l.Kind {
		case pathexpr.TokString:
			// Before the closing quote: an attribute value's text is decoded.
			end = l.Pos + 1 + strings.IndexByte(src[l.Pos+1:], src[l.Pos])
		case pathexpr.TokNumber:
			end = l.Pos + len(l.Text)
		case pathexpr.TokRawText:
			end = l.Pos + strings.IndexAny(src[l.Pos:], "<{}")
		}
		add := "v"
		if l.Kind == pathexpr.TokNumber {
			add = "1"
		}
		src = src[:end] + add + src[end:]
	}
	return src
}

// TestTemplatesFillLikeParse holds every update text of the corpus to
// Parse through the plan cache, filled from the template of a variant of
// it whose literals all differ: the same tree, down to each literal's value
// and position, the same String, and the same effect on two fresh
// databases of each fixture; and a text that does not lex or parse fails
// with Parse's error and leaves nothing in the cache.
func TestTemplatesFillLikeParse(t *testing.T) {
	var filled, failed, touching int
	for _, src := range updateCorpus(t) {
		want, werr := Parse(src)
		cache := plan.NewCache(0)
		if werr != nil {
			if _, err := ParseCached(src, cache); err == nil || err.Error() != werr.Error() {
				t.Errorf("%q: Parse fails with %v, through the cache with %v", src, werr, err)
			}
			if cache.Len() != 0 {
				t.Errorf("%q: does not parse, yet the cache keeps %d entries", src, cache.Len())
			}
			failed++
			continue
		}
		_, lits, err := mcxquery.AppendShape(nil, nil, src)
		if err != nil {
			t.Fatalf("%q parses but has no shape: %v", src, err)
		}
		other := variant(src, lits, newTemplate(want, lits).fixed)
		if _, err := ParseCached(other, cache); err != nil {
			t.Fatalf("variant %q of %q: %v", other, src, err)
		}
		got, err := ParseCached(src, cache)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if st := cache.Stats(); st.TemplateHits != 1 || st.TemplateMisses != 1 {
			t.Errorf("%q: %d template hits and %d misses, want %q's template to serve it",
				src, st.TemplateHits, st.TemplateMisses, other)
		}
		if !sameUpdate(got, want) {
			t.Errorf("%q:\nfilled %s\nparsed %s", src, got, want)
		}
		if sameEffect(t, src, got, want) {
			touching++
		}
		filled++
	}
	t.Logf("%d texts filled from a template (%d of them change a fixture), %d failing alike", filled, touching, failed)
	if touching < 40 { // the workloads' texts name the TPC-W and SIGMOD documents' tags
		t.Errorf("only %d of %d texts change a fixture: the comparison of effects shows little", touching, filled)
	}
}

// TestStringParsesBack: an update prints as a text Parse reads back. For
// every text of the corpus that parses, Parse(u.String()) prints the same
// String and has the same effect on the fixtures as u.
func TestStringParsesBack(t *testing.T) {
	for _, src := range updateCorpus(t) {
		u, err := Parse(src)
		if err != nil {
			continue
		}
		printed := u.String()
		back, err := Parse(printed)
		if err != nil {
			t.Errorf("%q prints as %q, which does not parse: %v", src, printed, err)
			continue
		}
		if again := back.String(); again != printed {
			t.Errorf("%q prints as %q, which prints as %q", src, printed, again)
		}
		sameEffect(t, src, back, u)
	}
	// An attribute value is stored decoded, as constructor text is, and
	// prints as one literal whatever quotes it holds.
	for src, want := range map[string]string{attrEntityText: "a & b", attrQuotesText: `it's "so"`} {
		u, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(u.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, u, err)
		}
		for _, u := range []*Update{u, back} {
			c := fixtures.NewCatalog(3)
			if _, err := walkUpdate(NewExecutor(c.DB), u); err != nil {
				t.Fatal(err)
			}
			notes := 0
			for _, n := range core.Descendants(c.DB.Document(), "red") {
				if n.Name() == "note" {
					notes++
					if got := n.AttributeValue("kind"); got != want {
						t.Errorf("%q stores kind=%q, want %q", u, got, want)
					}
				}
			}
			if notes != 3 {
				t.Errorf("%q inserted %d notes, want 3", u, notes)
			}
		}
	}
	// A document name and a processing-instruction target take a literal
	// only; one holding both quote kinds prints with its double quotes
	// doubled, and reads back.
	for src, want := range map[string]string{
		`for $i in document("it's ""db""")/{red}descendant::item update $i { delete $i }`:                                    `document("it's ""db""")`,
		`for $i in document("db")//item, $p in $i/{red}child::processing-instruction('say "it''s"') update $i { delete $p }`: `processing-instruction("say ""it's""")`,
	} {
		u, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		printed := u.String()
		back, err := Parse(printed)
		if err != nil {
			t.Errorf("%q prints as %q, which does not parse: %v", src, printed, err)
			continue
		}
		if again := back.String(); again != printed || !strings.Contains(printed, want) {
			t.Errorf("%q prints as %q, which prints as %q; want both to hold %s", src, printed, again, want)
		}
	}
}

// sameEffect applies two updates, bound by the evaluator, to fresh twins
// of the movie database and of a small catalog, and requires the same
// result, or the same error, and isomorphic databases after. It reports
// whether the updates touched any node.
func sameEffect(t *testing.T, src string, a, b *Update) (touched bool) {
	t.Helper()
	for _, fresh := range []func() *core.Database{
		func() *core.Database { return fixtures.NewMovieDB().DB },
		func() *core.Database { return fixtures.NewCatalog(30).DB },
	} {
		dbA, dbB := fresh(), fresh()
		resA, errA := walkUpdate(NewExecutor(dbA), a)
		resB, errB := walkUpdate(NewExecutor(dbB), b)
		if resA != resB || (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Errorf("%q: filled %+v, %v; parsed %+v, %v", src, resA, errA, resB, errB)
		}
		if ok, diff := serialize.Isomorphic(dbA, dbB); !ok {
			t.Errorf("%q: the databases differ after it: %s", src, diff)
		}
		touched = touched || resA.NodesTouched > 0
	}
	return touched
}

func walkUpdate(x *Executor, u *Update) (Result, error) {
	tuples, err := x.Bind(u)
	if err != nil {
		return Result{}, err
	}
	return x.ApplyTuples(u, tuples)
}

// TestTemplateKeepsFixedLiterals: a literal with no slot in the tree — a
// document name — is part of what a template serves, so a text that names
// another document is parsed, becomes its shape's template, and is what
// Parse gives.
func TestTemplateKeepsFixedLiterals(t *testing.T) {
	const a = `for $i in document("db")//item[name = "x"] update $i { replace $i/name with "y" }`
	const b = `for $i in document("other")//item[name = "z"] update $i { replace $i/name with "w" }`
	cache := plan.NewCache(0)
	for i, src := range []string{a, b, b} {
		got, err := ParseCached(src, cache)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Parse(src)
		if !sameUpdate(got, want) {
			t.Fatalf("%q: filled %s, parsed %s", src, got, want)
		}
		wantHits := uint64(max(0, i-1))
		if st := cache.Stats(); st.TemplateHits != wantHits || st.TemplateMisses != uint64(i+1)-wantHits || st.Size != 1 {
			t.Fatalf("after %d texts: %+v", i+1, st)
		}
	}
	if _, lits, _ := mcxquery.AppendShape(nil, nil, a); !slices.Equal(newTemplate(mustParse(t, a), lits).fixed, []bool{true, false, false}) {
		t.Fatal("the document name should be the only fixed literal")
	}
}

func mustParse(t *testing.T, src string) *Update {
	t.Helper()
	u, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
