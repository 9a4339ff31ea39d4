package update

import (
	"reflect"
	"testing"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/plan"
)

// FuzzBindTextHasShape: the binding text of every update that parses has a
// shape, so every parsed update carries the key of its binding plan
// (plan.Cache.Bindings has no route for a text without one); and an update
// filled from the template of a text of its shape is the update Parse
// gives, down to every literal's value and position, while a text that does
// not parse fails with Parse's error through the cache too. The fuzzer
// feeds pairs; texts a, b and a again go through one cache, so b is filled
// from a's template when the two share a shape, and a from its own.
func FuzzBindTextHasShape(f *testing.F) {
	for _, seed := range [][2]string{
		{`for $n in document("db")/{red}descendant::name[. = "Item 1234"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "57" }`,
			`for $n in document("db")/{red}descendant::name[. = "Item 7"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "8" }`},
		{`for $m in document("x")/{green}descendant::movie where $m/{green}child::votes > 10 update $m { insert <flag>hit</flag>, delete $m/{green}child::votes }`,
			`for $m in document("x")/{green}descendant::movie where $m/{green}child::votes > 1.5 update $m { insert <flag>a &amp; b</flag>, delete $m/{green}child::votes }`},
		{`for $i in document("db")//item where $i/cost < 5 and $i/name != 'a "b"' update $i { delete $i/name }`,
			`for $i in document("db")//item where $i/cost < 50 and $i/name != "it's" update $i { delete $i/name }`},
		{`let $d := document("db") for $i in $d//item[1] update $i { rename $i to x }`,
			`let $d := document("db") for $i in $d//item[2] update $i { rename $i to x }`},
		{`for $x in <a b="{1}">t</a> update $x { insert <c/> }`, `for $x in <a b="2">u</a> update $x { insert <c/> }`},
		{`for $i in (: note :) document("db")//item update $i { insert <b>{ $i/name }</b> }`,
			`for $i in document("db")//item update $i { insert <b>{ $i/name } x</b> }`},
		{`for $i in document("db")//item[name = "a"] update $i { insert <n k="v">{ if ($i/p = 1) then "y" else ("z", -2) }</n> before $i/name[1] }`,
			`for $i in document("db")//item[name = "bb"] update $i { insert <n k="w">{ if ($i/p = 3) then "q" else ("r", -4) }</n> before $i/name[2] }`},
		{`for $i in document("db")//item update $i { insert <b>{ for $j in $i/c where $j = "1" return $j/d }</b> after $i/c }`,
			`for $i in document("db")//item update $i { insert <b>{ for $j in $i/c where $j = "22" return $j/d }</b> after $i/c }`},
		{`for $i in document("db")//item update $i { replace $i/name with concat("a", "b") }`,
			`for $i in document("other")//item update $i { replace $i/name with concat("c", "d") }`},
		{`for $i in document("db")//item update $i { delete $i/name`, `for $i in document("db")//item update $i { insert "unterminated }`},
		{`for $i in document("db")//item update $i { frobnicate $i }`, `update $i { delete $i }`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if _, bindEnd, err := parseSyntax(a); err == nil {
			if _, _, err := mcxquery.AppendShape(nil, nil, a[:bindEnd]); err != nil {
				t.Fatalf("%q parses, but its binding text %q has no shape: %v", a, a[:bindEnd], err)
			}
		}
		cache := plan.NewCache(0)
		for _, src := range []string{a, b, a} {
			want, werr := Parse(src)
			got, gerr := ParseCached(src, cache)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("%q: Parse error %v, through the cache %v", src, werr, gerr)
				}
				continue
			}
			if !sameUpdate(got, want) {
				t.Fatalf("%q: through the cache %s, Parse %s", src, got, want)
			}
		}
	})
}

// sameUpdate reports whether two updates are the same tree, down to every
// literal's value and position, with the same binding shape.
func sameUpdate(a, b *Update) bool {
	a.Bindings()
	b.Bindings()
	return reflect.DeepEqual(a, b) && a.String() == b.String()
}
