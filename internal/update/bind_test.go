package update_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
)

// The binding seam's differential test: BindCompiled (the update's for/where
// clauses as a plan over the store's indexes) against Bind (the tree walk),
// tuple for tuple and in order, and the databases the two leave behind.

// bindCase is one update text; compiled says whether the plan compiler must
// accept its binding clauses (otherwise it must refuse with ErrUnsupported
// and the evaluator is the only route).
type bindCase struct {
	name     string
	src      string
	compiled bool
}

// movieCases are the update texts of update_test.go.
var movieCases = []bindCase{
	{"insert-birthdate", `for $a in document("mdb.xml")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
		update $a { insert <birthDate>1908-04-05</birthDate> }`, true},
	{"delete-in-one-color", `for $y in document("x")/{green}descendant::year,
		$m in $y/{green}child::movie[contains({green}child::name, "Eve")]
		update $y { delete $m }`, true},
	{"replace-where", `for $m in document("x")/{green}descendant::movie, $v in $m/{green}child::votes
		where $v < 10 update $m { replace $v with "10" }`, false},
	{"rename", `for $m in document("x")/{green}descendant::movie
		update $m { rename $m/{green}child::votes to first-place-votes }`, true},
	{"adopt-existing", `for $y in document("x")/{green}descendant::year[{green}child::name = "1959"],
		$m in document("x")/{red}descendant::movie[{red}child::name = "Duck Soup"]
		update $y { insert $m }`, false},
	{"insert-before", `for $a in document("x")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
		update $a { insert <x1/> before $a/{blue}child::name }`, true},
	{"insert-after", `for $a in document("x")/{blue}descendant::actor[{blue}child::name = "Bette Davis"]
		update $a { insert <x2/> after $a/{blue}child::name }`, true},
	{"ops-and-where", `for $m in document("x")/{green}descendant::movie
		where $m/{green}child::votes > 10
		update $m { insert <flag>hit</flag>, rename $m/{green}child::votes to v }`, true},
	{"attribute-predicate", `for $m in document("x")/{red}descendant::movie[{red}@id = "m1"]
		update $m { delete $m/{red}@id }`, true},
	{"let-clause", `for $a in document("x")/{blue}descendant::actor
		let $n := $a/{blue}child::name
		where contains($n, "Marx")
		update $a { replace $n with "G. Marx" }`, false},
	// Duck Soup sits under Slapstick under Comedy: one tuple, two ways to it.
	{"nested-genres", `for $m in document("x")/{red}descendant::movie-genre/{red}descendant::movie
		update $m { insert <seen>1</seen> }`, true},
	{"where-delete", `for $m in document("x")/{green}descendant::movie where $m/{green}child::votes > 10
		update $m { insert <flag>hit</flag>, delete $m/{green}child::votes }`, true},
}

func forItem(k int) string {
	return `for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) + `"], $i in $n/{red}parent::item`
}

func uVote(k int, v string) string {
	return forItem(k) + `, $v in $i/{green}child::votes update $i { replace $v with "` + v + `" }`
}

func uTagAdd(k int, tag string) string {
	return forItem(k) + ` update $i { insert <tag>` + tag + `</tag> }`
}

func uTagDel(k int, tag string) string {
	return forItem(k) + `, $t in $i/{red}child::tag[. = "` + tag + `"] update $i { delete $t }`
}

// catalogCases are the repository benchmark's three update classes plus the
// shapes they do not reach: many tuples, a bind that changes color, a
// predicate that looks into the other color, no tuple at all, and many tuples
// per outer binding.
func catalogCases(items int) []bindCase {
	k := 3 * (items / 6)
	return []bindCase{
		{"vote", uVote(k, "57"), true},
		{"tag-add", uTagAdd(k, "fresh"), true},
		{"tag-del", uTagDel(3, "seed3"), true},
		{"every-item", `for $i in document("db")/{red}descendant::item update $i { insert <seen>1</seen> }`, true},
		{"cross-color-bind", `for $i in document("db")/{green}descendant::item[{green}child::votes = "3"], $n in $i/{red}child::name
			update $i { replace $n with "renamed" }`, true},
		{"cross-color-predicate", `for $i in document("db")/{green}descendant::item[{red}child::name = "Item ` + strconv.Itoa(k) + `"]
			update $i { insert <mark>g</mark> }`, true},
		{"zero-tuples", uVote(items+7, "1"), true},
		{"fan-out", `for $c in document("db")/{red}child::catalog, $i in $c/{red}child::item, $t in $i/{red}child::tag
			update $i { delete $t }`, true},
		{"reverse-step", `for $t in document("db")/{red}descendant::tag, $i in $t/{red}parent::item
			update $i { insert <tagged>1</tagged> }`, true},
		{"where-on-second", `for $i in document("db")/{green}descendant::item, $v in $i/{green}child::votes
			where $v = "6" update $i { replace $v with "60" }`, false},
	}
}

// newCatalog is the benchmark's catalog plus a few seed tags, so that tag-del
// and the tag fan-out have something to find.
func newCatalog(t *testing.T, items int) *core.Database {
	t.Helper()
	c := fixtures.NewCatalog(items)
	for k := 3; k < items; k += 5 {
		if _, err := c.DB.AddElementText(c.Items[k], "tag", "red", "seed"+strconv.Itoa(k)); err != nil {
			t.Fatal(err)
		}
	}
	c.DB.DrainChanges()
	return c.DB
}

// sameTuples requires two tuple lists over one database to bind the same
// nodes under the same colors, variable by variable and in the same order.
func sameTuples(t *testing.T, u *update.Update, got, want update.Tuples) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("compiled bind has %d tuples, evaluator %d", len(got), len(want))
	}
	for i := range want {
		for _, cl := range u.Clauses {
			g, w := got[i].Vars[cl.Var], want[i].Vars[cl.Var]
			if len(g) != 1 || len(w) != 1 {
				t.Fatalf("tuple %d: $%s binds %d items (compiled) / %d (evaluator)", i, cl.Var, len(g), len(w))
			}
			if g[0].Node != w[0].Node || g[0].Color != w[0].Color {
				t.Fatalf("tuple %d: $%s = node %d in %q (compiled), node %d in %q (evaluator)",
					i, cl.Var, g[0].Node.ID(), g[0].Color, w[0].Node.ID(), w[0].Color)
			}
		}
	}
}

// differential binds c both ways on dbA (whose store image is st), applies
// the compiled tuples to dbA and runs the whole update through the evaluator
// on its twin dbB, and compares the outcomes.
func differential(t *testing.T, c bindCase, dbA, dbB *core.Database, st *storage.Store) {
	t.Helper()
	u, err := update.Parse(c.src)
	if err != nil {
		t.Fatal(err)
	}
	xa, xb := update.NewExecutor(dbA), update.NewExecutor(dbB)
	compiled, err := xa.BindCompiled(u, st, plan.Options{Catalog: plan.StoreCatalog{Store: st}})
	if !c.compiled {
		if !errors.Is(err, plan.ErrUnsupported) {
			t.Fatalf("BindCompiled = %v, want ErrUnsupported", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("BindCompiled: %v", err)
	}
	walked, err := xa.Bind(u)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	sameTuples(t, u, compiled, walked)

	resA, err := xa.ApplyTuples(u, compiled)
	if err != nil {
		t.Fatalf("ApplyTuples: %v", err)
	}
	resB, err := xb.Run(u)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resA != resB {
		t.Fatalf("result %+v through the compiled bind, %+v through the evaluator", resA, resB)
	}
	for name, db := range map[string]*core.Database{"compiled": dbA, "evaluator": dbB} {
		if err := db.Validate(); err != nil {
			t.Fatalf("%s database invalid: %v", name, err)
		}
	}
	if ok, why := serialize.Isomorphic(dbA, dbB); !ok {
		t.Fatalf("databases diverge: %s", why)
	}
}

func TestBindDifferentialMovies(t *testing.T) {
	for _, c := range movieCases {
		t.Run(c.name, func(t *testing.T) {
			a, b := fixtures.NewMovieDB(), fixtures.NewMovieDB()
			for _, m := range []*fixtures.MovieDB{a, b} {
				if _, err := m.DB.SetAttribute(m.Node("eve"), "id", "m1"); err != nil {
					t.Fatal(err)
				}
			}
			st, err := storage.Load(a.DB, 0)
			if err != nil {
				t.Fatal(err)
			}
			differential(t, c, a.DB, b.DB, st)
		})
	}
}

// TestBindDifferentialCatalog runs the catalog cases on a freshly loaded
// store and on one maintained incrementally through 200 random updates, after
// which index maps and heap files are no longer in bulk-load order.
func TestBindDifferentialCatalog(t *testing.T) {
	const items = 120
	for _, aged := range []bool{false, true} {
		for _, c := range catalogCases(items) {
			name := c.name
			if aged {
				name += "/after-200-updates"
			}
			t.Run(name, func(t *testing.T) {
				dbA, dbB := newCatalog(t, items), newCatalog(t, items)
				st, err := storage.Load(dbA, 0)
				if err != nil {
					t.Fatal(err)
				}
				if aged {
					st = age(t, dbA, dbB, st, items)
				}
				differential(t, c, dbA, dbB, st)
			})
		}
	}
}

// age applies the same 200 random vote / tag-add / tag-del updates to both
// databases, keeping dbA's store image current the way the serving layer
// does: clone, replay the drained change log.
func age(t *testing.T, dbA, dbB *core.Database, st *storage.Store, items int) *storage.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	xa, xb := update.NewExecutor(dbA), update.NewExecutor(dbB)
	var live [][2]string // (item, tag) pairs added and not yet deleted
	for n := 0; n < 200; n++ {
		var src string
		switch op := rng.Intn(3); {
		case op == 0:
			src = uVote(3*rng.Intn(items/3), strconv.Itoa(rng.Intn(90)))
		case op == 1 || len(live) == 0:
			k, tag := rng.Intn(items), fmt.Sprintf("t%d", n)
			live = append(live, [2]string{strconv.Itoa(k), tag})
			src = uTagAdd(k, tag)
		default:
			i := rng.Intn(len(live))
			k, _ := strconv.Atoi(live[i][0])
			src = uTagDel(k, live[i][1])
			live = append(live[:i], live[i+1:]...)
		}
		for _, x := range []*update.Executor{xa, xb} {
			if res, err := x.Apply(src); err != nil || res.Tuples != 1 {
				t.Fatalf("ageing update %d: %+v, %v\n%s", n, res, err, src)
			}
		}
		changes, overflow := dbA.DrainChanges()
		if overflow {
			t.Fatal("change log overflowed")
		}
		st = st.Clone()
		if err := st.ApplyChanges(changes); err != nil {
			t.Fatalf("ageing update %d: %v", n, err)
		}
	}
	dbB.DrainChanges()
	return st
}
