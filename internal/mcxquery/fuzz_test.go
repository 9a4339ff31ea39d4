package mcxquery

import (
	"fmt"
	"reflect"
	"testing"

	"colorfulxml/internal/pathexpr"
)

// parseLexed parses src from the whole token slice of LexQuery, the way
// ParseQuery did before it lexed on demand: the reference it is held to.
func parseLexed(src string) (pathexpr.Expr, error) {
	toks, err := LexQuery(src)
	if err != nil {
		return nil, err
	}
	p := pathexpr.NewParser(toks)
	p.Ext = ExtParse
	e, err := p.ParseExpr()
	if err == nil && p.Peek().Kind != pathexpr.TokEOF {
		err = pathexpr.Errf(p.Peek().Pos, "unexpected %s after query", p.Peek())
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// FuzzParseQuery feeds arbitrary source text through the lexer and parser.
// Malformed queries must be rejected with an error — never a panic, a hang,
// or a runaway allocation. Seeds cover every syntactic family: colored
// paths, predicates, FLWOR, constructors, conditionals and the failure
// modes (unterminated strings and braces, stray tokens). The parse, which
// lexes on demand, must give what parsing the whole token slice gives: the
// same expression, or the same error.
func FuzzParseQuery(f *testing.F) {
	for _, src := range []string{
		`document("db")/{red}child::movie`,
		`for $m in document("db")/{red}descendant::movie[contains({red}child::name, "Eve")]
return createColor(black, <m-name>{ $m/{red}child::name }</m-name>)`,
		`for $g in document("db")/{red}child::movie-genres/{red}child::movie-genre
let $n := $g/{red}child::name
where $n = "Comedy"
return <genre>{ $n }</genre>`,
		`if (document("db")/{red}child::a) then 1 else 2`,
		`document("db")/{red}descendant::movie[{green}child::votes > 10]/{red}child::name`,
		`/{red}child::a/{green}parent::b/{blue}ancestor::c`,
		`(1, 2, "three")`,
		`document("db")//{red}movie`,
		`for $x in`,
		`document("db")/{red}child::`,
		`<unclosed>{`,
		`"unterminated`,
		`{}{}{}`,
		`for $x in ) "unterminated`,
		`document("db")/{red}child::a ] <b>`,
		`(1, 2 <r>{ "x" }</s>`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseQuery(src)
		if err == nil && e == nil {
			t.Fatalf("ParseQuery(%q) returned neither expression nor error", src)
		}
		want, wantErr := parseLexed(src)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(e, want) {
			t.Fatalf("ParseQuery(%q) = %v, %v; from the token slice %v, %v", src, e, err, want, wantErr)
		}
	})
}
