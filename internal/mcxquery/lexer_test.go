package mcxquery

import (
	"testing"

	"colorfulxml/internal/pathexpr"
)

func kinds(toks []pathexpr.Token) []pathexpr.TokKind {
	out := make([]pathexpr.TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexLessThanVsConstructor(t *testing.T) {
	// Operator position: '<' is less-than.
	toks, err := LexQuery(`$a < $b`)
	if err != nil {
		t.Fatal(err)
	}
	want := []pathexpr.TokKind{pathexpr.TokVar, pathexpr.TokLt, pathexpr.TokVar, pathexpr.TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
	// Operand position after 'return': '<' opens a constructor.
	toks, err = LexQuery(`return <a/>`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokTagOpen && tk.Text == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no TagOpen in %v", toks)
	}
}

func TestLexNestedBracesInConstructor(t *testing.T) {
	// Color braces inside an enclosed expression must not end the enclosure.
	toks, err := LexQuery(`<r>{ $m/{red}child::name }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	var opens, closes int
	for _, tk := range toks {
		switch tk.Kind {
		case pathexpr.TokLBrace:
			opens++
		case pathexpr.TokRBrace:
			closes++
		}
	}
	if opens != 2 || closes != 2 {
		t.Fatalf("braces: %d open / %d close", opens, closes)
	}
	// The last non-EOF token must be the end tag.
	if toks[len(toks)-2].Kind != pathexpr.TokTagEnd {
		t.Fatalf("tokens end with %v", toks[len(toks)-2])
	}
}

func TestLexRawTextAndEntities(t *testing.T) {
	toks, err := LexQuery(`<r>a &amp; b</r>`)
	if err != nil {
		t.Fatal(err)
	}
	var raw string
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokRawText {
			raw = tk.Text
		}
	}
	if raw != "a & b" {
		t.Fatalf("raw = %q", raw)
	}
}

func TestLexWhitespaceOnlyContentDropped(t *testing.T) {
	toks, err := LexQuery("<r>   <s/>   </r>")
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokRawText {
			t.Fatalf("whitespace-only text leaked: %q", tk.Text)
		}
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		`<r>`,            // unterminated constructor
		`<r`,             // unterminated start tag
		`<r></q>`,        // mismatched end tag
		`<r>}</r>`,       // stray brace in content
		`<r>&bogus;</r>`, // bad entity
		`<r><</r>`,       // bare '<' in content
		`return <a>text`, // EOF inside content
	}
	for _, src := range bad {
		if _, err := LexQuery(src); err == nil {
			t.Errorf("LexQuery(%q) should fail", src)
		}
	}
}

func TestLexSelfCloseReturnsToExpr(t *testing.T) {
	toks, err := LexQuery(`(<a/>, <b/>)`)
	if err != nil {
		t.Fatal(err)
	}
	tags := 0
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokTagSelfClose {
			tags++
		}
	}
	if tags != 2 {
		t.Fatalf("self-closing tags = %d, want 2", tags)
	}
}

func TestLexAttributesInTag(t *testing.T) {
	toks, err := LexQuery(`<r a="1" b-c="x y"/>`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokString {
			strs = append(strs, tk.Text)
		}
	}
	if len(strs) != 2 || strs[0] != "1" || strs[1] != "x y" {
		t.Fatalf("attr strings = %v", strs)
	}
}

func TestLexKeywordOperandPositions(t *testing.T) {
	// '<' after every operand keyword opens a tag.
	for _, kw := range []string{"return", "then", "else", "satisfies", "in"} {
		src := kw + ` <x/>`
		toks, err := LexQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ok := false
		for _, tk := range toks {
			if tk.Kind == pathexpr.TokTagOpen {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%q: no TagOpen", src)
		}
	}
	// ...but after a closing paren it is a comparison.
	toks, err := LexQuery(`count($x) < 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if tk.Kind == pathexpr.TokTagOpen {
			t.Fatal("comparison lexed as constructor")
		}
	}
	_ = toks
}

// TestLexSizesTokensOnce: the token slice of an update or probe text of the
// shape a write workload sends is allocated once, not grown by doubling
// (which cost six or seven allocations and about 4 kB per text). The bounds
// are the lexer's other allocations plus that one slice.
func TestLexSizesTokensOnce(t *testing.T) {
	forItem := `for $n in document("db")/{red}descendant::name[. = "Item 1234"], $i in $n/{red}parent::item`
	for _, c := range []struct {
		name, src string
		allocs    float64
	}{
		{"vote", forItem + `, $v in $i/{green}child::votes update $i { replace $v with "17" }`, 3},
		{"tag-add", forItem + ` update $i { insert <tag>t-00001234</tag> }`, 4},
		{"tag probe", `document("db")/{red}descendant::tag[. = "t-00001234"]`, 3},
	} {
		toks, err := LexQuery(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(toks) > len(c.src)/3+2 {
			t.Errorf("%s: %d tokens from %d bytes outgrow the first sizing", c.name, len(toks), len(c.src))
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = LexQuery(c.src) }); n > c.allocs {
			t.Errorf("%s: LexQuery allocates %v times, want at most %v", c.name, n, c.allocs)
		}
	}
}
