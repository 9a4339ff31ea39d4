package colorful

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/storage"
)

// TestPreparedNavPlansTrackUpdates prepares the three selective benchmark
// classes — whose plans navigate from a content-index probe chosen for its
// cardinality of one — and then moves the data out from under those plans:
// the probed literal's cardinality goes 1 → 0 → most of the tag (content
// updates keep the stats epoch, so the statements keep executing plans
// whose cost estimate is now wrong), tags come and go under the probed
// items (structural: the epoch moves and the statements recompile), and
// enough leaves are inserted under one item to fill its interval and have its
// siblings relabelled around it (the parent hops must follow the new
// parent-starts). After every step each
// statement must return exactly what the reference evaluator returns, in
// order.
func TestPreparedNavPlansTrackUpdates(t *testing.T) {
	const items, k = 300, 57
	db := New("red", "green")
	catalog, err := db.AddElement(db.Document(), "catalog", "red")
	if err != nil {
		t.Fatal(err)
	}
	featured, err := db.AddElement(db.Document(), "featured", "green")
	if err != nil {
		t.Fatal(err)
	}
	names, votes := map[int]*Node{}, map[int]*Node{}
	for i := 0; i < items; i++ {
		item, err := db.AddElement(catalog, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if names[i], err = db.AddElementText(item, "name", "red", "Item "+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				t.Fatal(err)
			}
			if votes[i], err = db.AddElementText(item, "votes", "green", strconv.Itoa(i%50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	name := "Item " + strconv.Itoa(k)
	point := `document("db")/{red}descendant::name[. = "` + name + `"]`
	texts := map[string]string{
		"predjoin":   `document("db")/{red}descendant::item[{red}child::name = "` + name + `"]/{red}child::name`,
		"crosscolor": `for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`,
		"hop":        point + `/{red}parent::item/{green}child::votes`,
		"tags":       point + `/{red}parent::item/{red}child::tag`,
	}
	sess := db.Session()
	defer sess.Close()
	stmts := map[string]*Stmt{}
	for class, text := range texts {
		ex, err := db.Explain(text)
		if err != nil {
			t.Fatal(err)
		}
		// (With no tag in the store yet, scanning all of them is cheaper.)
		if class != "tags" && (!strings.Contains(ex, "NavJoin") || strings.Contains(ex, "ScanTag")) {
			t.Fatalf("%s should compile to a navigational plan:\n%s", class, ex)
		}
		if stmts[class], err = sess.Prepare(text); err != nil {
			t.Fatal(err)
		}
		defer stmts[class].Close()
	}
	check := func(step string, wantRows map[string]int) {
		t.Helper()
		for class, st := range stmts {
			out, err := st.Query()
			if err != nil {
				t.Fatalf("%s: %s: %v", step, class, err)
			}
			ref, err := mcxquery.NewEvaluator(db.Database).Query(texts[class])
			if err != nil {
				t.Fatalf("%s: %s: evaluator: %v", step, class, err)
			}
			var got, want []string
			for _, it := range out {
				got = append(got, it.Value)
			}
			for _, it := range ref {
				want = append(want, pathexpr.ItemString(it))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s returns %v, the evaluator %v", step, class, got, want)
			}
			if n, ok := wantRows[class]; ok && len(got) != n {
				t.Fatalf("%s: %s returns %d rows %v, want %d", step, class, len(got), got, n)
			}
		}
	}
	compiles := func() uint64 { return sess.Stats().Compiled }
	setText := func(n *Node, v string) {
		t.Helper()
		if err := db.SetText(n, v); err != nil {
			t.Fatal(err)
		}
	}
	update := func(src string) {
		t.Helper()
		if res, err := db.Update(src); err != nil || res.Tuples != 1 {
			t.Fatalf("%s: %+v, %v", src, res, err)
		}
	}

	check("as loaded", map[string]int{"predjoin": 1, "crosscolor": 2, "hop": 1, "tags": 0})
	warm := compiles()

	// Content: the literals' cardinalities leave the plans' estimates behind.
	setText(names[k], "renamed")
	setText(votes[57], "8")
	setText(votes[207], "8")
	check("literal cardinality 0", map[string]int{"predjoin": 0, "crosscolor": 0, "hop": 0})
	for i := 0; i < items; i += 2 {
		setText(names[i], name)
	}
	for i := 0; i < items; i += 3 {
		setText(votes[i], "7")
	}
	check("literal cardinality most of the tag", map[string]int{"predjoin": items / 2, "crosscolor": items / 3, "hop": items / 6})
	if got := compiles(); got != warm {
		t.Fatalf("content updates recompiled the prepared statements (%d compiles, was %d)", got, warm)
	}
	for i := 0; i < items; i += 2 {
		setText(names[i], "Item "+strconv.Itoa(i))
	}
	setText(names[k], name)
	check("literal cardinality 1 again", map[string]int{"predjoin": 1, "hop": 1})

	// Structure: tags under the probed item, and under its neighbours.
	forItem := func(i int) string {
		return `for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(i) + `"], $i in $n/{red}parent::item`
	}
	for _, i := range []int{k, k - 1, k + 1} {
		update(forItem(i) + ` update $i { insert <tag>t` + strconv.Itoa(i) + `</tag> }`)
		check("tag added under item "+strconv.Itoa(i), nil)
	}
	check("three tags added", map[string]int{"tags": 1, "predjoin": 1, "hop": 1})
	if got := compiles(); got == warm {
		t.Fatal("structural updates did not recompile the prepared statements")
	}
	update(forItem(k) + `, $t in $i/{red}child::tag[. = "t` + strconv.Itoa(k) + `"] update $i { delete $t }`)
	check("tag deleted", map[string]int{"tags": 0})

	// Relabelling: an item's interval has room for a handful of leaves.
	itemK, ok, err := db.snap.Load().st.StructOf(storage.ElemID(core.Parent(names[k], "red").ID()), "red")
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	for j := 0; j < 12; j++ {
		update(forItem(k) + ` update $i { insert <tag>r` + strconv.Itoa(j) + `</tag> }`)
		check("leaf "+strconv.Itoa(j)+" inserted", map[string]int{"tags": j + 1, "predjoin": 1, "hop": 1})
	}
	after, _, err := db.snap.Load().st.StructOf(itemK.Elem, "red")
	if err != nil {
		t.Fatal(err)
	}
	if after.End-after.Start <= itemK.End-itemK.Start {
		t.Fatalf("12 leaves under %v did not extend it (now %v)", itemK, after)
	}
	if m := db.MaintStats(); m.FullRebuilds != 1 {
		t.Fatalf("the snapshots were rebuilt, not maintained: %+v", m)
	}
}
