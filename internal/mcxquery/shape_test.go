package mcxquery

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"colorfulxml/internal/pathexpr"
)

// decodeShape rebuilds a token stream (kinds and texts, no positions) from
// a shape and its arguments; ok is false when the two do not fit together.
// Kinds whose text the shape leaves out get the text the kind always has,
// which fixed records across the texts decoded.
func decodeShape(key []byte, args []pathexpr.Token, fixed map[pathexpr.TokKind]string) (toks []pathexpr.Token, ok bool) {
	for len(key) > 0 {
		kind := pathexpr.TokKind(key[0])
		key = key[1:]
		switch kind {
		case pathexpr.TokString, pathexpr.TokNumber, pathexpr.TokRawText:
			if len(args) == 0 || args[0].Kind != kind {
				return nil, false
			}
			toks = append(toks, pathexpr.Token{Kind: kind, Text: args[0].Text})
			args = args[1:]
		case pathexpr.TokIdent, pathexpr.TokVar, pathexpr.TokTagOpen, pathexpr.TokTagEnd:
			n, w := binary.Uvarint(key)
			if w <= 0 || uint64(len(key)-w) < n {
				return nil, false
			}
			toks = append(toks, pathexpr.Token{Kind: kind, Text: string(key[w : w+int(n)])})
			key = key[w+int(n):]
		default:
			toks = append(toks, pathexpr.Token{Kind: kind, Text: fixed[kind]})
		}
	}
	return toks, len(args) == 0
}

// lexed returns LexQuery's tokens without positions or the final EOF, and
// records the text of each kind the shape leaves out.
func lexed(t *testing.T, src string, fixed map[pathexpr.TokKind]string) ([]pathexpr.Token, error) {
	toks, err := LexQuery(src)
	if err != nil {
		return nil, err
	}
	toks = toks[:len(toks)-1]
	for i, tok := range toks {
		toks[i].Pos = 0
		switch tok.Kind {
		case pathexpr.TokString, pathexpr.TokNumber, pathexpr.TokIdent, pathexpr.TokVar,
			pathexpr.TokTagOpen, pathexpr.TokTagEnd, pathexpr.TokRawText:
		default:
			if text, seen := fixed[tok.Kind]; seen && text != tok.Text {
				t.Fatalf("kind %d has texts %q and %q: the shape would lose one", tok.Kind, text, tok.Text)
			}
			fixed[tok.Kind] = tok.Text
		}
	}
	return toks, nil
}

// FuzzShapeLossless holds (shape, arguments) to be a lossless encoding of a
// text's tokens: AppendShape fails exactly where LexQuery does, the tokens
// decode back from the shape and the arguments, and so two texts with equal
// shapes and equal arguments have equal token streams — the property that
// lets a plan cache serve one text with the plan of another. A text that
// parses has a shape, so the compiled route never meets a parsed text it
// cannot key (plan.QueryShape is AppendShape under a prefix). Seeds cover
// both quote kinds, a quote of one kind inside the other or doubled inside
// its own, numbers, and texts that differ only in whitespace or in a
// literal, constructor text with an entity included.
func FuzzShapeLossless(f *testing.F) {
	for _, seed := range [][2]string{
		{`document("db")/{red}descendant::name[. = "Item 7"]`, `document( "db" ) / {red} descendant::name [ . = "Item 8" ]`},
		{`document('db')//item[cost > 9000]`, `document("db")//item[cost > "9000"]`},
		{`//a[. = 'say "hi"']`, `//a[. = "it's"]`},
		{`//a[. = "say ""it's"""]`, `//a[. = 'it''s' or . = """"]`},
		{`//a[. = 7]`, `//a[. = 07]`},
		{`//a[. = 1.5 and b = "x"]`, `//a[. = 1.5 and b = 'x']`},
		{`for $i in document("db")//item where $i/votes = "7" return <r a="v">{ $i/name } text</r>`,
			`for $i in document("db")//item where $i/votes = "8" return <r a="w">{ $i/name } text</r>`},
		{`<tag>t5</tag>`, `<tag>a &amp; b</tag>`},
		{`(: comment :) "a"`, `"a"`},
		{`"unterminated`, `'x`},
		{``, ` `},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		fixed := map[pathexpr.TokKind]string{}
		var keys [2][]byte
		var args [2][]pathexpr.Token
		var toks [2][]pathexpr.Token
		for i, src := range []string{a, b} {
			key, as, err := AppendShape(nil, nil, src)
			want, lexErr := lexed(t, src, fixed)
			if (err == nil) != (lexErr == nil) {
				t.Fatalf("AppendShape(%q): %v, LexQuery: %v", src, err, lexErr)
			}
			if _, perr := ParseQuery(src); perr == nil && err != nil {
				t.Fatalf("%q parses but has no shape: %v", src, err)
			}
			if err != nil {
				return
			}
			got, ok := decodeShape(key, as, fixed)
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("%q: shape and arguments decode to %v, want %v", src, got, want)
			}
			keys[i], args[i], toks[i] = key, as, want
		}
		sameArgs := slices.EqualFunc(args[0], args[1], func(x, y pathexpr.Token) bool {
			return x.Kind == y.Kind && x.Text == y.Text
		})
		if bytes.Equal(keys[0], keys[1]) && sameArgs && !slices.Equal(toks[0], toks[1]) {
			t.Fatalf("%q and %q: equal shapes and arguments, different tokens", a, b)
		}
	})
}
