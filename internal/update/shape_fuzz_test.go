package update

import (
	"testing"

	"colorfulxml/internal/mcxquery"
)

// FuzzBindTextHasShape: the binding text of every update that parses has a
// shape, so the plan cache always keys an update's binding clauses
// (plan.Cache.Bindings scans the shape of bindText with AppendShape under a
// prefix, and has no route for a text without one).
func FuzzBindTextHasShape(f *testing.F) {
	for _, seed := range []string{
		`for $n in document("db")/{red}descendant::name[. = "Item 1234"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "57" }`,
		`for $m in document("x")/{green}descendant::movie where $m/{green}child::votes > 10 update $m { insert <flag>hit</flag>, delete $m/{green}child::votes }`,
		`for $i in document("db")//item where $i/cost < 5 and $i/name != 'a "b"' update $i { delete $i/name }`,
		`let $d := document("db") for $i in $d//item[1] update $i { rename $i to x }`,
		`for $x in <a b="{1}">t</a> update $x { insert <c/> }`,
		`for $i in (: note :) document("db")//item update $i { insert <b>{ $i/name }</b> }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := Parse(src)
		if err != nil {
			return
		}
		if _, _, err := mcxquery.AppendShape(nil, nil, u.bindText); err != nil {
			t.Fatalf("%q parses, but its binding text %q has no shape: %v", src, u.bindText, err)
		}
	})
}
