package update_test

import (
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/update"
)

// walk parses an update and applies it with its tuples bound by the
// tree-walking evaluator (Bind), the fallback route of DB.Update.
func walk(x *update.Executor, src string) (update.Result, error) {
	u, err := update.Parse(src)
	if err != nil {
		return update.Result{}, err
	}
	tuples, err := x.Bind(u)
	if err != nil {
		return update.Result{}, err
	}
	return x.ApplyTuples(u, tuples)
}

func apply(t *testing.T, m *fixtures.MovieDB, src string) update.Result {
	t.Helper()
	x := update.NewExecutor(m.DB)
	res, err := walk(x, src)
	if err != nil {
		t.Fatalf("update failed: %v\nupdate: %s", err, src)
	}
	if err := m.DB.Validate(); err != nil {
		t.Fatalf("database invalid after update: %v", err)
	}
	return res
}

// TestInsertBirthDate is the paper's motivating update anomaly example:
// adding a birthDate subelement to an actor. With MCT the actor is stored
// once, so one insert suffices.
func TestInsertBirthDate(t *testing.T) {
	m := fixtures.NewMovieDB()
	res := apply(t, m, `
for $a in document("mdb.xml")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
update $a { insert <birthDate>1908-04-05</birthDate> }`)
	if res.Tuples != 1 || res.NodesTouched != 1 {
		t.Fatalf("res = %+v", res)
	}
	bd := core.Children(m.Node("bette"), fixtures.Blue)
	found := false
	for _, ch := range bd {
		if ch.Name() == "birthDate" {
			found = true
			if sv, _ := core.StringValue(ch, fixtures.Blue); sv != "1908-04-05" {
				t.Fatalf("birthDate = %q", sv)
			}
			if len(ch.Colors()) != 1 || ch.Colors()[0] != fixtures.Blue {
				t.Fatalf("birthDate colors = %v, want blue only", ch.Colors())
			}
		}
	}
	if !found {
		t.Fatal("birthDate not inserted")
	}
}

func TestDeleteInOneColorPreservesOthers(t *testing.T) {
	m := fixtures.NewMovieDB()
	// Remove eve from the green (award) hierarchy; it must survive as red.
	res := apply(t, m, `
for $y in document("x")/{green}descendant::year,
    $m in $y/{green}child::movie[contains({green}child::name, "Eve")]
update $y { delete $m }`)
	if res.NodesTouched != 1 {
		t.Fatalf("res = %+v", res)
	}
	eve := m.Node("eve")
	if m.DB.NodeByID(eve.ID()) == nil {
		t.Fatal("eve must survive (it is red)")
	}
	if eve.HasColor(fixtures.Green) {
		t.Fatal("eve should have lost green")
	}
	if !eve.HasColor(fixtures.Red) {
		t.Fatal("eve should keep red")
	}
	// The green-only votes child is deleted with the green subtree.
	if m.DB.NodeByID(m.Node("eve-votes").ID()) != nil {
		t.Fatal("green-only votes child should be gone")
	}
}

func TestReplaceContent(t *testing.T) {
	m := fixtures.NewMovieDB()
	res := apply(t, m, `
for $m in document("x")/{green}descendant::movie,
    $v in $m/{green}child::votes
where $v < 10
update $m { replace $v with "10" }`)
	if res.NodesTouched != 1 {
		t.Fatalf("res = %+v", res)
	}
	sv, _ := core.StringValue(m.Node("angry-votes"), fixtures.Green)
	if sv != "10" {
		t.Fatalf("votes = %q", sv)
	}
}

func TestRename(t *testing.T) {
	m := fixtures.NewMovieDB()
	res := apply(t, m, `
for $m in document("x")/{green}descendant::movie
update $m { rename $m/{green}child::votes to first-place-votes }`)
	if res.Tuples != 3 || res.NodesTouched != 3 {
		t.Fatalf("res = %+v", res)
	}
	if m.Node("eve-votes").Name() != "first-place-votes" {
		t.Fatalf("name = %q", m.Node("eve-votes").Name())
	}
}

func TestInsertExistingNodeAdopts(t *testing.T) {
	m := fixtures.NewMovieDB()
	// Duck Soup wins a late nomination: adopt the existing red movie node
	// into the green 1959 year via an update (implicit next-color).
	res := apply(t, m, `
for $y in document("x")/{green}descendant::year[{green}child::name = "1959"],
    $m in document("x")/{red}descendant::movie[{red}child::name = "Duck Soup"]
update $y { insert $m }`)
	if res.NodesTouched != 1 {
		t.Fatalf("res = %+v", res)
	}
	duck := m.Node("duck")
	if !duck.HasColor(fixtures.Green) {
		t.Fatal("duck should now be green")
	}
	if core.Parent(duck, fixtures.Green) != m.Node("y1959") {
		t.Fatal("duck's green parent should be y1959")
	}
}

func TestInsertBeforeAndAfter(t *testing.T) {
	m := fixtures.NewMovieDB()
	apply(t, m, `
for $a in document("x")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
update $a { insert <x1/> before $a/{blue}child::name }`)
	kids := core.Children(m.Node("bette"), fixtures.Blue)
	if kids[0].Name() != "x1" {
		t.Fatalf("insert before: %v", kids)
	}
	apply(t, m, `
for $a in document("x")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
update $a { insert <x2/> after $a/{blue}child::name }`)
	kids = core.Children(m.Node("bette"), fixtures.Blue)
	var namesInOrder []string
	for _, k := range kids {
		namesInOrder = append(namesInOrder, k.Name())
	}
	want := "x1,name,x2,movie-role"
	if got := strings.Join(namesInOrder, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestMultipleOpsAndWhere(t *testing.T) {
	m := fixtures.NewMovieDB()
	res := apply(t, m, `
for $m in document("x")/{green}descendant::movie
where $m/{green}child::votes > 10
update $m {
  insert <flag>hit</flag>,
  rename $m/{green}child::votes to v
}`)
	if res.Tuples != 2 || res.NodesTouched != 4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDeleteAttribute(t *testing.T) {
	m := fixtures.NewMovieDB()
	if _, err := m.DB.SetAttribute(m.Node("eve"), "id", "m1"); err != nil {
		t.Fatal(err)
	}
	apply(t, m, `
for $m in document("x")/{red}descendant::movie[{red}@id = "m1"]
update $m { delete $m/{red}@id }`)
	if m.Node("eve").Attribute("id") != nil {
		t.Fatal("attribute should be deleted")
	}
}

func TestLetClauseInUpdate(t *testing.T) {
	m := fixtures.NewMovieDB()
	res := apply(t, m, `
for $a in document("x")/{blue}descendant::actor
let $n := $a/{blue}child::name
where contains($n, "Marx")
update $a { replace $n with "G. Marx" }`)
	if res.Tuples != 1 {
		t.Fatalf("res = %+v", res)
	}
	sv, _ := core.StringValue(m.Node("groucho-name"), fixtures.Blue)
	if sv != "G. Marx" {
		t.Fatalf("name = %q", sv)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`update $x { delete $y }`, // no for clause
		`for $x in document("d")/{red}child::a update $x { }`,
		`for $x in document("d")/{red}child::a update $x { frobnicate $y }`,
		`for $x in document("d")/{red}child::a update $x { delete $y`,
		`for $x in document("d")/{red}child::a update $x { rename $y }`,
		`for $x in document("d")/{red}child::a update $x { replace $y }`,
		`for $x in document("d")/{red}child::a update { delete $y }`,
		`for $x in document("d")/{red}child::a update $x { delete $y } trailing`,
	}
	for _, src := range bad {
		if _, err := update.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	m := fixtures.NewMovieDB()
	x := update.NewExecutor(m.DB)
	cases := []string{
		// Target bound to an atomic value.
		`for $v in (1) update $v { insert <a/> }`,
		// Unbound target.
		`for $m in document("x")/{red}descendant::movie update $q { delete $m }`,
		// Delete of atomic.
		`for $m in document("x")/{red}descendant::movie[1] update $m { delete "x" }`,
	}
	for _, src := range cases {
		if _, err := walk(x, src); err == nil {
			t.Errorf("update %q should fail", src)
		}
	}
}

func TestUpdateStringAndMetrics(t *testing.T) {
	src := `for $m in document("x")/{green}descendant::movie where $m/{green}child::votes > 10 update $m { insert <flag>hit</flag>, delete $m/{green}child::votes }`
	u, err := update.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumBindings() != 1 {
		t.Fatalf("bindings = %d", u.NumBindings())
	}
	if got := u.CountPathExpressions(); got != 3 {
		t.Fatalf("paths = %d, want 3", got)
	}
	s := u.String()
	for _, frag := range []string{"for $m", "where", "update $m", "insert", "delete"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q: %s", frag, s)
		}
	}
}
