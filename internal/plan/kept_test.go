package plan_test

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/workload"
)

// The differential test of kept plans: the plan the cache keeps for a
// text's shape serves texts with other literals and outlives structural
// commits that move no stats epoch. Each text it serves must get what a
// fresh compile gets — the same nodes in the same order, the same value
// route (OutLeaf) and fold — and what the reference evaluator answers; each
// commit that falsifies a fact a plan's answer rests on must move the epoch.

// world is a database, its store, and the texts run on it.
type world struct {
	name  string
	db    *core.Database
	st    *storage.Store
	def   core.Color
	texts []string
	// sets lists the texts whose answer order the evaluator defines
	// differently from the plan (see workload's differential test).
	sets map[string]bool
	// twin is the database the evaluator runs on, rebuilt from the store
	// after each commit: the constructors in a text's return clause add
	// nodes to the database they run on.
	twin *core.Database
	// The evaluator checks every variant before the first commit and after
	// the last (evalAll). The tree walks over a Table 2 database take a
	// tenth of a second a text, so there it checks the MCT representation
	// after the last commit, on the text and its first variant (evalLast).
	evalAll, evalLast bool
}

func (w *world) opt() plan.Options {
	return plan.Options{DefaultColor: w.def, Catalog: plan.StoreCatalog{Store: w.st}}
}

// benchWorld is the repository benchmark's catalog at 900 items with its
// six query classes, and a numeric range over the votes.
func benchWorld(t *testing.T) *world {
	db := core.NewDatabase("red", "green")
	must := func(n *core.Node, err error) *core.Node {
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	catalog := must(db.AddElement(db.Document(), "catalog", "red"))
	featured := must(db.AddElement(db.Document(), "featured", "green"))
	for k := 0; k < 900; k++ {
		item := must(db.AddElement(catalog, "item", "red"))
		must(db.AddElementText(item, "name", "red", fmt.Sprint("Item ", k)))
		if k%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				t.Fatal(err)
			}
			must(db.AddElementText(item, "votes", "green", fmt.Sprint(k%50)))
		}
	}
	db.DrainChanges()
	st, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	point := `document("db")/{red}descendant::name[. = "Item 450"]`
	return &world{name: "bench", db: db, st: st, evalAll: true, texts: []string{
		point,
		`document("db")/{red}descendant::item/{red}child::name`,
		`document("db")/{red}descendant::item[{red}child::name = "Item 450"]/{red}child::name`,
		`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`,
		`for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`,
		point + `/{red}parent::item/{green}child::votes`,
		`document("db")/{green}descendant::votes[. > "7"]`,
	}}
}

// table2Worlds are the Table 2 representations with their compiled query
// texts that compare with a literal.
func table2Worlds(t *testing.T) []*world {
	tp, err := workload.LoadTPCW(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.LoadSigmod(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []*world
	for _, d := range []struct {
		st      *workload.Stores
		queries []*workload.Query
	}{{tp, workload.TPCWQueries()}, {sg, workload.SigmodQueries()}} {
		for _, v := range workload.Variants {
			w := &world{name: string(v), db: d.st.DB(v), st: d.st.Of(v), sets: map[string]bool{}, evalLast: v == workload.MCT}
			if v != workload.MCT {
				w.def = datagen.ColDoc
			}
			w.db.DrainChanges()
			for _, q := range d.queries {
				text := workload.FaithfulText(q.ID, q.Text[v], d.st.Params)
				c, err := plan.CompileQuery(text, w.opt())
				if err != nil {
					t.Fatalf("%s/%s: %v", q.ID, v, err)
				}
				if len(plan.ParamsOf(c)) > 0 {
					w.texts = append(w.texts, text)
					w.sets[text] = q.ID == "TQ16" && v == workload.MCT
				}
			}
			out = append(out, w)
		}
	}
	return out
}

// variant is a text, and whether the evaluator is to answer it too.
type variant struct {
	text       string
	eval, sets bool
}

// variants returns text with its parameters' literals replaced: first by a
// value absent from the data, which is not numeric, then by "7" and "07",
// then, for a literal compared for equality, by a value one node has and
// the value the most nodes have, and last the text itself. So a plan
// compiled for a non-numeric literal is asked to serve numeric ones. A
// compiled equality compares a literal's text, the evaluator a numeric
// literal's number: "07" finds a "7" there only, so the evaluator does not
// answer that variant.
func variants(t *testing.T, w *world, text string) []variant {
	c, err := plan.CompileQuery(text, w.opt())
	if err != nil {
		t.Fatal(err)
	}
	_, args, err := mcxquery.AppendShape(nil, nil, text)
	if err != nil {
		t.Fatal(err)
	}
	out := []variant{}
	for _, p := range plan.ParamsOf(c) {
		tok := args[p.Ord]
		subst := func(v string) string {
			if tok.Kind == pathexpr.TokString {
				v = `"` + v + `"`
			}
			end := tok.Pos + len(tok.Text)
			if tok.Kind == pathexpr.TokString {
				end += 2
			}
			return text[:tok.Pos] + v + text[end:]
		}
		if tok.Kind == pathexpr.TokString {
			out = append(out, variant{text: subst("absent value"), eval: true})
		}
		out = append(out, variant{text: subst("7"), eval: true}, variant{text: subst("07")})
		if p.Tag != "" {
			one, most := contentCounts(t, w.st, p.Color, p.Tag)
			for _, v := range []string{one, most} {
				if v != "" {
					out = append(out, variant{text: subst(v), eval: true})
				}
			}
		}
	}
	out = append(out, variant{text: text, eval: true})
	for i := range out {
		out[i].sets = w.sets[text]
	}
	return out
}

// contentCounts returns a content one node of the tag has and the content
// the most of them have ("" for none).
func contentCounts(t *testing.T, st *storage.Store, c core.Color, tag string) (one, most string) {
	nodes, err := st.ScanTag(c, tag)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, sn := range nodes {
		content, err := st.ContentOf(sn.Elem)
		if err != nil {
			t.Fatal(err)
		}
		if content != "" && !strings.Contains(content, `"`) {
			n[content]++
		}
	}
	keys := make([]string, 0, len(n))
	for k := range n {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if n[k] == 1 && one == "" {
			one = k
		}
		if most == "" || n[k] > n[most] {
			most = k
		}
	}
	return one, most
}

// answer runs a plan on the store: the output nodes, and their values as
// the compiled route reads them — ok false where it would hand the text to
// the evaluator (mixed content).
func answer(t *testing.T, st *storage.Store, p plan.Plan) (ids []storage.ElemID, values []string, ok bool) {
	ids, _, err := engine.ExecColumn(nil, st, p.Mem, p.Instance().Root, p.OutCol, p.Rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids = slices.Clone(ids)
	switch {
	case p.OutAttr != "":
		err = st.AttrBytes(ids, p.OutAttr, func(_, _ int, v []byte) { values = append(values, string(v)) })
	case p.OutLeaf:
		err = st.ContentBytes(ids, func(_ int, v []byte) { values = append(values, string(v)) })
	default:
		err = st.StringValues(ids, p.Cols[p.OutCol].Color, func(_ int, v []byte) { values = append(values, string(v)) })
	}
	if errors.Is(err, storage.ErrMixedContent) {
		return ids, nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return ids, values, true
}

// evaluate answers text on the reference evaluator over w's twin, as values
// the way the compiled route renders them.
func evaluate(t *testing.T, w *world, text, attr string) []string {
	// createColor colours what it wraps, which a second run on the twin
	// would colour again; the values are those of the wrapped nodes.
	text = createColor.ReplaceAllString(text, "(")
	if w.twin == nil {
		db, err := storage.Reconstruct(w.st)
		if err != nil {
			t.Fatal(err)
		}
		w.twin = db
	}
	ev := mcxquery.NewEvaluator(w.twin)
	ev.DefaultColor = w.def
	out, err := ev.Query(text)
	if err != nil {
		t.Fatalf("%s: evaluator: %v", text, err)
	}
	var values []string
	for _, it := range out {
		if attr == "" {
			values = append(values, pathexpr.ItemString(it))
			continue
		}
		attrs := it.Node.Attributes()
		if it.Node.Kind() == core.KindAttribute {
			attrs = []*core.Node{it.Node}
		}
		for _, a := range attrs {
			if a.Name() == attr {
				values = append(values, a.Value())
			}
		}
	}
	return values
}

var createColor = regexp.MustCompile(`createColor\(\s*\w+\s*,`)

// distinctValues returns the values in order of first appearance, sorted when the
// order is not defined alike.
func distinctValues(values []string, sorted bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// check runs text through the cache and compares the plan it serves with a
// fresh compile and the evaluator; it reports whether the cache kept a plan
// compiled for another text.
func check(t *testing.T, w *world, cache *plan.Cache, text string, eval, sets bool) (kept bool) {
	t.Helper()
	opt := w.opt()
	e, err := mcxquery.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := plan.QueryShape(text, opt)
	if !ok {
		t.Fatalf("%s: no shape", text)
	}
	epoch := w.st.StatsEpoch()
	p, hit := cache.GetShape(sh, opt, epoch)
	if !hit {
		c, err := plan.CompileShape(e, sh, opt)
		if err != nil {
			t.Fatal(err)
		}
		cache.PutShape(sh, epoch, c)
		p = plan.Plan{Compiled: c}
	}
	fresh, err := plan.CompileQuery(text, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutLeaf != fresh.OutLeaf || p.Folded != fresh.Folded || p.OutAttr != fresh.OutAttr {
		t.Errorf("%s %s: kept plan reads values leaf=%v folded %q, a fresh one leaf=%v folded %q",
			w.name, text, p.OutLeaf, p.Folded, fresh.OutLeaf, fresh.Folded)
	}
	keptIDs, keptValues, ok := answer(t, w.st, p)
	freshIDs, _, _ := answer(t, w.st, plan.Plan{Compiled: fresh})
	if !slices.Equal(keptIDs, freshIDs) {
		t.Errorf("%s %s:\nkept plan %d nodes %v\nfresh     %d nodes %v", w.name, text, len(keptIDs), head(keptIDs), len(freshIDs), head(freshIDs))
	}
	if ok && eval {
		got := distinctValues(keptValues, sets)
		want := distinctValues(evaluate(t, w, text, p.OutAttr), sets)
		if !slices.Equal(got, want) {
			t.Errorf("%s %s:\nkept plan %d values %v\nevaluator %d values %v", w.name, text, len(got), head(got), len(want), head(want))
		}
	}
	return hit && p.Args != nil
}

func head[T any](s []T) []T { return s[:min(len(s), 8)] }

// elements returns the element nodes of colour c, in document order.
func elements(db *core.Database, c core.Color) []*core.Node {
	var out []*core.Node
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		for _, ch := range core.Children(n, c) {
			if ch.Kind() == core.KindElement {
				out = append(out, ch)
				walk(ch)
			}
		}
	}
	walk(db.Document())
	return out
}

// mutation is one structural commit: what it does to the database, and the
// fact it falsifies — true before and false after means the epoch must move.
type mutation struct {
	kind string
	do   func() error
	fact func() bool
}

// mutate picks a structural commit of the given kind on w: a leaf tag's
// first element child (leaf), a tag below the same tag (nest), a subtree
// deletion (delete), or enough leaves of a rare tag to cross a power of two
// in its count (cross).
func mutate(w *world, kind string, rng *rand.Rand) mutation {
	colors := w.db.Colors()
	c := colors[rng.Intn(len(colors))]
	els := elements(w.db, c)
	pick := func(ok func(n *core.Node) bool) *core.Node {
		for _, i := range rng.Perm(len(els)) {
			if ok(els[i]) {
				return els[i]
			}
		}
		return nil
	}
	m := mutation{kind: kind, do: func() error { return nil }, fact: func() bool { return false }}
	switch kind {
	case "leaf":
		n := pick(func(n *core.Node) bool { return w.st.LeafTag(c, n.Name()) })
		if n == nil {
			return m
		}
		tag := n.Name()
		// An empty child: the string value stays the node's own text, which
		// is what a compiled predicate compares.
		m.do = func() error { _, err := w.db.AddElement(n, "aka", c); return err }
		m.fact = func() bool { return w.st.LeafTag(c, tag) }
	case "nest":
		cat := plan.StoreCatalog{Store: w.st}
		n := pick(func(n *core.Node) bool { return cat.NeverNests(c, n.Name()) })
		if n == nil {
			return m
		}
		tag := n.Name()
		m.do = func() error { _, err := w.db.AddElementText(n, tag, c, "nested"); return err }
		m.fact = func() bool { return plan.StoreCatalog{Store: w.st}.NeverNests(c, tag) }
	case "delete":
		n := pick(func(n *core.Node) bool { return core.Parent(n, c) != nil && core.Parent(core.Parent(n, c), c) != nil })
		if n == nil {
			return m
		}
		m.do = func() error { return w.db.DeleteSubtree(n, c) }
	case "cross":
		n := pick(func(n *core.Node) bool {
			k := w.st.CountTag(c, n.Name())
			return k <= 32 && core.Parent(n, c) != nil
		})
		if n == nil {
			return m
		}
		tag, parent := n.Name(), core.Parent(n, c)
		count := w.st.CountTag(c, tag)
		m.do = func() error {
			for i := count; i < 1<<bits.Len(uint(count)); i++ {
				if _, err := w.db.AddElementText(parent, tag, c, "more"); err != nil {
					return err
				}
			}
			return nil
		}
		m.fact = func() bool { return bits.Len(uint(w.st.CountTag(c, tag))) == bits.Len(uint(count)) }
	}
	return m
}

// commit applies a mutation to the database and replays its change log onto
// the store, and fails the test when it falsified its fact without moving
// the stats epoch. It reports whether it did falsify it.
func commit(t *testing.T, w *world, m mutation) bool {
	t.Helper()
	before, epoch := m.fact(), w.st.StatsEpoch()
	if err := m.do(); err != nil {
		t.Fatal(err)
	}
	changes := w.db.DrainChanges()
	if err := w.st.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	w.twin = nil
	flipped := before && !m.fact()
	if flipped && w.st.StatsEpoch() == epoch {
		t.Errorf("%s: a %s commit falsified its fact and left the stats epoch %d", w.name, m.kind, epoch)
	}
	return flipped
}

// TestKeptPlansAgreeAcrossLiteralsAndCommits runs every bench class and
// every compiled Table 2 text with a comparison literal, each with the
// literal variants, through one plan cache per database, between structural
// commits of each kind.
func TestKeptPlansAgreeAcrossLiteralsAndCommits(t *testing.T) {
	worlds := append([]*world{benchWorld(t)}, table2Worlds(t)...)
	rng := rand.New(rand.NewSource(7))
	kinds := []string{"leaf", "nest", "delete", "cross"}
	kept, flips := 0, map[string]int{}
	for _, w := range worlds {
		cache := plan.NewCache(0)
		for round := 0; round <= len(kinds); round++ {
			for _, text := range w.texts {
				vs := variants(t, w, text)
				for i, v := range vs {
					ends := round == 0 || round == len(kinds)
					last := round == len(kinds) && (i == 0 || i == len(vs)-1)
					eval := v.eval && (w.evalAll && ends || w.evalLast && last)
					if check(t, w, cache, v.text, eval, v.sets) {
						kept++
					}
				}
			}
			if round < len(kinds) && commit(t, w, mutate(w, kinds[round], rng)) {
				flips[kinds[round]]++
			}
		}
	}
	// Guard against vacuous agreement: plans were kept for other literals,
	// and each kind of fact flipped.
	if kept == 0 || flips["leaf"] == 0 || flips["nest"] == 0 || flips["cross"] == 0 {
		t.Errorf("%d texts served by a plan compiled for other literals, fact flips %v", kept, flips)
	}
}

// TestKeptPlansConcurrentWithWriter runs readers of the bench classes with
// new literals through one shared cache while a writer publishes store
// images after structural commits of every kind: each reader's kept plan
// must answer as a fresh compile on the same image.
func TestKeptPlansConcurrentWithWriter(t *testing.T) {
	w := benchWorld(t)
	var cur atomic.Pointer[storage.Store]
	cur.Store(w.st)
	cache := plan.NewCache(0)
	stop := make(chan struct{})
	errc := make(chan error, 4)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				runs.Add(1)
				st := cur.Load()
				rw := &world{name: w.name, st: st}
				text := strings.Replace(w.texts[i%len(w.texts)], `"Item 450"`, fmt.Sprintf(`"Item %d"`, 3*(i%300)), 1)
				text = strings.Replace(text, `"7"`, fmt.Sprintf(`"%d"`, i%50), 1)
				opt := rw.opt()
				e, err := mcxquery.ParseQuery(text)
				if err != nil {
					errc <- err
					return
				}
				sh, _ := plan.QueryShape(text, opt)
				epoch := st.StatsEpoch()
				p, hit := cache.GetShape(sh, opt, epoch)
				if !hit {
					c, err := plan.CompileShape(e, sh, opt)
					if err != nil {
						errc <- err
						return
					}
					cache.PutShape(sh, epoch, c)
					p = plan.Plan{Compiled: c}
				}
				fresh, err := plan.CompileQuery(text, opt)
				if err != nil {
					errc <- err
					return
				}
				got, _, err1 := engine.ExecColumn(nil, st, p.Mem, p.Instance().Root, p.OutCol, p.Rows, nil)
				got = slices.Clone(got)
				want, _, err2 := engine.ExecColumn(nil, st, fresh.Mem, fresh.Root.Clone(), fresh.OutCol, fresh.Rows, nil)
				if err1 != nil || err2 != nil || !slices.Equal(got, want) || p.OutLeaf != fresh.OutLeaf || p.Folded != fresh.Folded {
					errc <- fmt.Errorf("reader %d, %s: kept %v %v, fresh %v %v", r, text, head(got), err1, head(want), err2)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(3))
	kinds := []string{"leaf", "nest", "delete", "cross"}
	for i := 0; i < 12 && len(errc) == 0; i++ {
		// Let the readers run on each image.
		for target := runs.Load() + 20; runs.Load() < target && len(errc) == 0; {
			runtime.Gosched()
		}
		m := mutate(w, kinds[i%len(kinds)], rng)
		if err := m.do(); err != nil {
			t.Fatal(err)
		}
		changes := w.db.DrainChanges()
		next := cur.Load().Clone()
		if err := next.ApplyChanges(changes); err != nil {
			t.Fatal(err)
		}
		w.st = next
		cur.Store(next)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
