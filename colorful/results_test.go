package colorful

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
)

// This file tests what a compiled query hands back — nodes, colours, values,
// order — and what it reads them from (DESIGN.md §7: always the snapshot
// that produced the answer).

// catalogDB is the repository benchmark's catalog (bench/data.go): red
// catalog → item* → name("Item k"); every third item also under green
// featured, with a green votes(k mod 50) leaf.
func catalogDB(items int) *DB { return wrap(fixtures.NewCatalog(items).DB) }

func catalogPoint(k int) string {
	return `document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) + `"]`
}

func catalogItem(k int) string {
	return `for $n in ` + catalogPoint(k) + `, $i in $n/{red}parent::item`
}

// ageCatalog applies 200 random vote / tag-add / tag-del updates, each
// published incrementally, after which records, index maps and the
// identity table are no longer as a bulk load leaves them.
func ageCatalog(t *testing.T, db *DB, items int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var live [][2]string // (item, tag) pairs added and not yet deleted
	for n := 0; n < 200; n++ {
		var src string
		switch op := rng.Intn(3); {
		case op == 0:
			src = catalogItem(3*rng.Intn(items/3)) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(rng.Intn(90)) + `" }`
		case op == 1 || len(live) == 0:
			k, tag := rng.Intn(items), fmt.Sprintf("t%d", n)
			live = append(live, [2]string{strconv.Itoa(k), tag})
			src = catalogItem(k) + ` update $i { insert <tag>` + tag + `</tag> }`
		default:
			i := rng.Intn(len(live))
			k, _ := strconv.Atoi(live[i][0])
			src = catalogItem(k) + `, $t in $i/{red}child::tag[. = "` + live[i][1] + `"] update $i { delete $t }`
			live = append(live[:i], live[i+1:]...)
		}
		if res, err := db.Update(src); err != nil || res.Tuples != 1 {
			t.Fatalf("ageing update %d: %+v, %v\n%s", n, res, err, src)
		}
	}
	if st := db.MaintStats(); st.FullRebuilds != 1 {
		t.Fatalf("ageing fell back to full rebuilds: %+v", st)
	}
}

// routeCatalog is catalogDB with an id and an n attribute on every item and,
// under the red catalog, a blurb with text and a child: mixed content.
func routeCatalog(t *testing.T, items int) *DB {
	t.Helper()
	db := catalogDB(items)
	catalog := db.MustQuery(`document("db")/{red}child::catalog`)[0].Node
	for k, it := range db.MustQuery(`document("db")/{red}descendant::item`) {
		for _, a := range [][2]string{{"id", "i" + strconv.Itoa(k)}, {"n", strconv.Itoa(k)}} {
			if _, err := db.SetAttribute(it.Node, a[0], a[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	blurb, err := db.AddElementText(catalog, "blurb", "red", "see ")
	if err == nil {
		_, err = db.AddElementText(blurb, "b", "red", "this")
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// commitStructure applies 60 seeded structural commits to a routeCatalog:
// tag adds, deletes of whole red-only items, and attribute sets, renames and
// removals (a rename rebuilds the snapshot; the rest replay incrementally).
func commitStructure(t *testing.T, db *DB, items int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	itemNodes := db.MustQuery(`document("db")/{red}descendant::item`)
	deleted := map[int]bool{}
	for n := 0; n < 60; n++ {
		k := rng.Intn(items)
		if deleted[k] {
			continue
		}
		it := itemNodes[k].Node
		var err error
		switch rng.Intn(5) {
		case 0:
			var res UpdateResult
			res, err = db.Update(catalogItem(k) + ` update $i { insert <tag>s` + strconv.Itoa(n) + `</tag> }`)
			if err == nil && res.Tuples != 1 {
				err = fmt.Errorf("tag-add bound %d tuples", res.Tuples)
			}
		case 1:
			if k%3 == 1 { // neither green nor item 57
				deleted[k] = true
				err = db.DeleteSubtree(it, "red")
			}
		case 2:
			_, err = db.SetAttribute(it, "id", "s"+strconv.Itoa(n))
		case 3:
			if a := it.Attribute("n"); a != nil {
				err = db.Rename(a, "m")
			} else if a := it.Attribute("m"); a != nil {
				err = db.Rename(a, "n")
			}
		default:
			err = db.RemoveAttribute(it, "id")
		}
		if err != nil {
			t.Fatalf("structural commit %d: %v", n, err)
		}
		if err = db.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultsMatchEvaluator: every compiled text of the table — the six
// benchmark classes, the navigational texts, the write workloads' probes,
// containers whose value is a subtree's text and an attribute projection —
// answers with the evaluator's items (nodes, colours, values, in order), from
// the snapshot and with no evaluator fallback; the mixed-content text is the
// evaluator's, counted once under mixed_content. On a fresh database, on one
// aged by 200 updates and after 60 structural commits.
func TestResultsMatchEvaluator(t *testing.T) {
	const items, k = 300, 57
	point := catalogPoint(k)
	texts := []struct {
		text  string
		mixed bool
	}{
		{text: point},
		{text: `document("db")/{red}descendant::item/{red}child::name`},
		{text: `document("db")/{red}descendant::item[{red}child::name = "Item 57"]/{red}child::name`},
		{text: `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`},
		{text: `for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`},
		{text: point + `/{red}parent::item/{green}child::votes`},
		{text: point + `/{red}parent::item/{red}child::tag`},
		{text: `document("db")/{green}descendant::votes[. = "7"]`},
		// The write workloads' read-your-write probes (no tag exists before ageing).
		{text: `document("db")/{red}descendant::tag`},
		{text: `document("db")/{red}descendant::tag[. = "t3"]/{red}parent::item/{red}child::name`},
		// Containers, an attribute projection, and mixed content.
		{text: point + `/{red}parent::item`},
		{text: `document("db")/{green}descendant::item`},
		{text: `document("db")/{green}child::featured`},
		{text: `for $p in document("db")/{red}descendant::item return $p/{red}attribute::id`},
		{text: `document("db")/{red}descendant::blurb`, mixed: true},
	}
	for _, state := range []string{"fresh", "aged", "structural"} {
		db := routeCatalog(t, items)
		switch state {
		case "aged":
			ageCatalog(t, db, items)
		case "structural":
			commitStructure(t, db, items)
		}
		sess := db.Session()
		for _, tc := range texts {
			mixed := obsFallbackMixed.Value()
			got, err := sess.Query(tc.text)
			if err != nil {
				t.Fatalf("%s %s: %v", state, tc.text, err)
			}
			if want := map[bool]uint64{true: 1}[tc.mixed]; obsFallbackMixed.Value()-mixed != want {
				t.Errorf("%s %s: %d mixed_content fallbacks, want %d", state, tc.text, obsFallbackMixed.Value()-mixed, want)
			}
			db.mu.RLock()
			want, err := db.evalItems(tc.text)
			db.mu.RUnlock()
			if err != nil {
				t.Fatalf("%s: evaluator: %v", tc.text, err)
			}
			if len(got) != len(want) {
				t.Errorf("%s %s: %d items, the evaluator returns %d", state, tc.text, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s %s: item %d is %v %q in %q, the evaluator's %v %q in %q", state, tc.text, i,
						got[i].Node, got[i].Value, got[i].Color, want[i].Node, want[i].Value, want[i].Color)
					break
				}
			}
		}
		if st := sess.Stats(); st.Fallbacks != 1 || st.Errors != 0 {
			t.Errorf("%s: %+v, want every text but the mixed one on the compiled route", state, st)
		}
		sess.Close()
	}
}

// paraDB is a red doc of three paras, each "Hello " <b>bold<i></b> " world"
// with an id attribute p<i>: mixed content around leaves.
func paraDB(t *testing.T) (*DB, []*Node) {
	t.Helper()
	db := New("red")
	doc, err := db.AddElement(db.Document(), "doc", "red")
	if err != nil {
		t.Fatal(err)
	}
	var paras []*Node
	for i := 0; i < 3; i++ {
		p, err := db.AddElementText(doc, "para", "red", "Hello ")
		if err == nil {
			_, err = db.AddElementText(p, "b", "red", "bold"+strconv.Itoa(i))
		}
		if err == nil {
			_, err = db.AppendText(p, " world")
		}
		if err == nil {
			_, err = db.SetAttribute(p, "id", "p"+strconv.Itoa(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		paras = append(paras, p)
	}
	return db, paras
}

const (
	paraQ = `document("db")/{red}descendant::para`
	boldQ = `document("db")/{red}descendant::b`
	idQ   = `for $p in document("db")/{red}descendant::para return $p/{red}attribute::id`
)

// TestNonLeafOutputsReadTheSnapshot: Explain names what of the snapshot an
// output's values are read from, and the choice follows the data, not the
// text. Mixed content goes to the evaluator and agrees with dm:string-value;
// an attribute projection yields the elements' own attribute nodes; give a
// leaf a child and the same query reads subtrees (here mixed again), take
// the child away and it reads content records.
func TestNonLeafOutputsReadTheSnapshot(t *testing.T) {
	db, paras := paraDB(t)
	reads := func(text string) string {
		t.Helper()
		ex, err := db.Explain(text)
		if err != nil {
			t.Fatal(err)
		}
		_, after, ok := strings.Cut(strings.TrimSpace(ex), "values from snapshot ")
		if !ok {
			t.Fatalf("Explain(%s) names nothing values are read from:\n%s", text, ex)
		}
		return after
	}
	for text, want := range map[string]string{paraQ: "subtree", boldQ: "content", idQ: "attribute"} {
		if got := reads(text); got != want {
			t.Errorf("%s reads its values from the snapshot's %s, want %s", text, got, want)
		}
	}
	mixed := obsFallbackMixed.Value()
	out, err := db.Query(paraQ)
	if err != nil || len(out) != len(paras) {
		t.Fatalf("%d paras, %v", len(out), err)
	}
	for i, it := range out {
		want, _ := core.StringValue(paras[i], "red")
		if it.Node != paras[i] || it.Value != want || want != "Hello bold"+strconv.Itoa(i)+" world" {
			t.Errorf("para %d: %v %q, want %v %q", i, it.Node, it.Value, paras[i], want)
		}
	}
	if got := obsFallbackMixed.Value() - mixed; got != 1 {
		t.Errorf("the mixed paras were counted %d times under mixed_content, want once", got)
	}
	if out, err = db.Query(idQ); err != nil || len(out) != 3 {
		t.Fatalf("attribute projection: %v, %v", out, err)
	}
	for i, it := range out {
		if it.Node != paras[i].Attribute("id") || it.Value != "p"+strconv.Itoa(i) {
			t.Errorf("attribute %d: %v %q, want %v", i, it.Node, it.Value, paras[i].Attribute("id"))
		}
	}
	// A structural change under one b makes b an inner tag: the cached plan's
	// epoch moves, the recompiled one reads subtrees, and that b's holds
	// mixed content.
	bs, err := db.Query(boldQ)
	if err != nil || len(bs) != 3 || bs[2].Value != "bold2" {
		t.Fatalf("%v, %v", bs, err)
	}
	if _, err := db.AddElementText(bs[2].Node, "i", "red", "!"); err != nil {
		t.Fatal(err)
	}
	if got := reads(boldQ); got != "subtree" {
		t.Errorf("after giving a b a child, %s still reads the snapshot's %s", boldQ, got)
	}
	if bs, err = db.Query(boldQ); err != nil || len(bs) != 3 || bs[2].Value != "bold2!" || bs[0].Value != "bold0" {
		t.Fatalf("%v, %v", bs, err)
	}
	// And back: with the child gone every b is a leaf again.
	if err := db.DeleteSubtree(db.MustQuery(`document("db")/{red}descendant::i`)[0].Node, "red"); err != nil {
		t.Fatal(err)
	}
	if got := reads(boldQ); got != "content" {
		t.Errorf("after deleting the child, %s reads the snapshot's %s", boldQ, got)
	}
}

// TestHeldAttributesKeepTheirGeneration: an attribute projection answered at
// generation G still yields G's attribute nodes and values after one
// attribute is renamed, one removed and added again and one given a new
// value — held as Rows, and run again on G's snapshot, whose attribute table
// those commits do not reach although they change the nodes' names and
// values in place.
func TestHeldAttributesKeepTheirGeneration(t *testing.T) {
	db, paras := paraDB(t)
	sess := db.Session()
	defer sess.Close()
	rows, err := sess.QueryRows(context.Background(), idQ)
	if err != nil {
		t.Fatal(err)
	}
	held := db.snap.Load()
	var attrs []*Node
	for _, p := range paras {
		attrs = append(attrs, p.Attribute("id"))
	}
	check := func(how string, out []Item) {
		t.Helper()
		if len(out) != len(attrs) {
			t.Fatalf("%s: %d items, want %d", how, len(out), len(attrs))
		}
		for i, it := range out {
			if it.Node != attrs[i] || it.Value != "p"+strconv.Itoa(i) {
				t.Errorf("%s: item %d is %v %q, want %v %q", how, i, it.Node, it.Value, attrs[i], "p"+strconv.Itoa(i))
			}
		}
	}

	if err := db.Rename(attrs[1], "key"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveAttribute(paras[2], "id"); err != nil {
		t.Fatal(err)
	}
	added, err := db.SetAttribute(paras[2], "id", "again")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetAttribute(paras[0], "id", "changed"); err != nil {
		t.Fatal(err)
	}
	now, err := sess.Query(idQ)
	if err != nil || len(now) != 2 || now[0].Node != attrs[0] || now[0].Value != "changed" || now[1].Node != added || now[1].Value != "again" {
		t.Fatalf("after the commits: %v, %v", now, err)
	}

	items, err := rows.Items()
	if err != nil {
		t.Fatal(err)
	}
	check("held rows", items)
	c, err := plan.CompileQuery(idQ, db.planOptions(held.st))
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.run(context.Background(), held, plan.Plan{Compiled: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("a run on the held snapshot", again.items)
}

// TestReadersSeeOneGeneration: readers of votes[. = "v"] race a writer that
// keeps moving votes between values. Node set and values now come from one
// snapshot, so every item a reader gets carries the value it asked for — with
// values read from live core (the parent commit) a vote changed between plan
// and mapping came back with its new value. The writer starts once every
// reader has seen a row, so no reader can miss the commits however fast they
// are. Meaningful under -race.
func TestReadersSeeOneGeneration(t *testing.T) {
	const items, readers, commits = 90, 4, 400
	db := catalogDB(items)
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg, ready sync.WaitGroup
	ready.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var once sync.Once
			isReady := func() { once.Do(ready.Done) }
			defer isReady() // a reader that failed lets the writer go
			sess := db.Session()
			defer sess.Close()
			seen := 0
			for n := 0; ; n++ {
				select {
				case <-stop:
					if seen == 0 {
						errc <- fmt.Errorf("reader %d never saw a row", r)
					}
					return
				default:
				}
				v := strconv.Itoa((r + n) % 10)
				out, err := sess.Query(`document("db")/{green}descendant::votes[. = "` + v + `"]`)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				for _, it := range out {
					if it.Value != v {
						errc <- fmt.Errorf("reader %d asked for votes %q and got %q", r, v, it.Value)
						return
					}
				}
				seen += len(out)
				if seen > 0 {
					isReady()
				}
			}
		}(r)
	}
	go func() {
		defer close(stop)
		ready.Wait()
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < commits; n++ {
			src := catalogItem(3*rng.Intn(items/3)) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(rng.Intn(10)) + `" }`
			if res, err := db.Update(src); err != nil || res.Tuples != 1 {
				errc <- fmt.Errorf("writer: %+v, %v", res, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestCoreValuesSeeOneGeneration is TestReadersSeeOneGeneration for an output
// that is not a leaf of the data: an item's green value is the text of its
// subtree, its votes. (The name is from when such values were mapped through
// live core, where core's newer votes came back with an older snapshot's
// items.) Readers get items whose votes match their predicate while a writer
// keeps moving votes, and every query runs its plan once and never reaches the
// evaluator: nodes and values come from the snapshot the plan ran on, whatever
// commits land meanwhile. Meaningful under -race.
func TestCoreValuesSeeOneGeneration(t *testing.T) {
	const items, readers, commits = 90, 4, 2000
	db := catalogDB(items)
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if st := sess.Stats(); st.Fallbacks != 0 {
						errc <- fmt.Errorf("reader %d: %d of %d queries on the evaluator", r, st.Fallbacks, st.Queries)
					}
					return
				default:
				}
				v := strconv.Itoa((r + n) % 10)
				out, root, err := sess.TraceQuery(context.Background(), `document("db")/{green}descendant::item[{green}child::votes = "`+v+`"]`)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				runs := 0
				for _, sp := range root.Children() {
					if sp.Name() == "execute" {
						runs++
					}
				}
				if runs != 1 {
					errc <- fmt.Errorf("reader %d: the plan ran %d times for one query", r, runs)
					return
				}
				for _, it := range out {
					if it.Value != v {
						errc <- fmt.Errorf("reader %d asked for items with votes %q and got one with %q", r, v, it.Value)
						return
					}
				}
			}
		}(r)
	}
	go func() {
		defer close(stop)
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < commits; n++ {
			src := catalogItem(3*rng.Intn(items/3)) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(rng.Intn(10)) + `" }`
			if res, err := db.Update(src); err != nil || res.Tuples != 1 {
				errc <- fmt.Errorf("writer: %+v, %v", res, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestConcurrentCommitsCannotStarveCoreQuery: a non-leaf query over 6 000
// items returns while a writer commits nonstop, after one run of its plan and
// with no evaluator answer. Its values are read from the
// snapshot the plan ran on, so no commit can send it round again. (With the
// core route's unbounded retry, 50 such queries ran the plan about 19 000
// times; with its bounded one, up to three times each before the evaluator
// answered.)
func TestConcurrentCommitsCannotStarveCoreQuery(t *testing.T) {
	const items, queries = 6000, 50
	db := catalogDB(items)
	done := make(chan struct{})
	writer := make(chan error, 1)
	var commits int
	go func() {
		rng := rand.New(rand.NewSource(1))
		deadline := time.After(20 * time.Second)
		for ; ; commits++ {
			select {
			case <-done:
				writer <- nil
				return
			case <-deadline:
				writer <- fmt.Errorf("the queries had not returned after %d commits", commits)
				return
			default:
			}
			src := catalogItem(3*rng.Intn(items/3)) + `, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(rng.Intn(10)) + `" }`
			if res, err := db.Update(src); err != nil || res.Tuples != 1 {
				writer <- fmt.Errorf("writer: %+v, %v", res, err)
				return
			}
		}
	}()
	sess := db.Session()
	defer sess.Close()
	for n := 0; n < queries; n++ {
		v := strconv.Itoa(n % 10)
		out, root, err := sess.TraceQuery(context.Background(), `document("db")/{green}descendant::item[{green}child::votes = "`+v+`"]`)
		if err != nil {
			close(done)
			<-writer
			t.Fatal(err)
		}
		runs := 0
		for _, sp := range root.Children() {
			if sp.Name() == "execute" {
				runs++
			}
		}
		if runs != 1 {
			t.Errorf("query %d ran its plan %d times, want once", n, runs)
		}
		for _, it := range out {
			if it.Value != v {
				t.Errorf("asked for items with votes %q and got one with %q", v, it.Value)
				break
			}
		}
	}
	close(done)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	t.Logf("%d commits during %d queries", commits, st.Queries)
	if st.Fallbacks != 0 {
		t.Errorf("%d of %d queries answered by the evaluator, want none", st.Fallbacks, st.Queries)
	}
}

// TestHeldSnapshotResolvesDeletedNodes: a snapshot a reader still holds
// answers from its own generation after the elements it returns were deleted
// from the database — nodes and values both.
func TestHeldSnapshotResolvesDeletedNodes(t *testing.T) {
	db := catalogDB(30)
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	held := db.snap.Load()
	const q = `document("db")/{red}descendant::item/{red}child::name`
	before := db.MustQuery(q)
	// Delete every third item (its name goes with it) and rename another.
	for k := 0; k < 30; k += 3 {
		if res, err := db.Update(catalogItem(k) + ` update $i { delete $n }`); err != nil || res.Tuples != 1 {
			t.Fatalf("%+v, %v", res, err)
		}
	}
	if err := db.SetText(before[1].Node, "renamed"); err != nil {
		t.Fatal(err)
	}
	if now := db.MustQuery(q); len(now) != 20 || now[0].Value != "renamed" {
		t.Fatalf("current state: %d names, first %q", len(now), now[0].Value)
	}
	c, err := plan.CompileQuery(q, db.planOptions(held.st))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.auto.execCompiled(context.Background(), held, plan.Plan{Compiled: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Rows{sp: held, ids: ids, color: "red"}.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("held snapshot returns %d names, want the 30 of its generation", len(got))
	}
	for i, it := range got {
		if it.Node != before[i].Node || it.Value != "Item "+strconv.Itoa(i) || it.Color != "red" {
			t.Fatalf("held snapshot item %d: %v %q, want %v %q", i, it.Node, it.Value, before[i].Node, "Item "+strconv.Itoa(i))
		}
	}
	if n := db.NodeByID(before[0].Node.ID()); n != nil {
		t.Fatalf("deleted node %v still in the live identity table", n)
	}
}

// TestResultAllocations pins what an answer costs to hand over. A one-row
// prepared query allocates no more than it did before results became
// references (11 at the parent commit; the operator clone, the execution
// context, the item and its value are what is left). A 20 000-row one
// allocates a constant: its values are views of the snapshot's records, so
// there is no string or chunk per row, no answer-id buffer (the plan's pool
// lends it), no per-row structural node copy, no regrown slice, no hash set.
// Its bytes are the items and a constant (the value bytes were a term of
// their own while values were copied into chunks). A one-shot query whose
// plan is cached is pinned in bytes: it is not parsed, and its scratch comes
// from the plan's pool: under 0.5 kB, against 3.0 kB when every hit was
// parsed.
func TestResultAllocations(t *testing.T) {
	const items = 20000
	db := catalogDB(items)
	sess := db.Session()
	defer sess.Close()
	for _, tc := range []struct {
		text     string
		oneShot  bool // Session.Query, a plan-cache hit, instead of a Stmt
		rows     int
		max      float64 // allocations per query
		maxBytes uint64  // bytes per query; 0 leaves them unpinned
	}{
		{text: catalogPoint(9999), rows: 1, max: 11},
		{text: catalogPoint(9999), oneShot: true, rows: 1, max: 11, maxBytes: 1024},
		// Values are views of the snapshot's records: the []Item and a few
		// fixed allocations, nothing per row or per value byte.
		{text: `document("db")/{red}descendant::item/{red}child::name`, rows: items, max: 16,
			maxBytes: uint64(items)*uint64(unsafe.Sizeof(Item{})) + 32<<10},
		{text: `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`, rows: (items + 2) / 3, max: 64 + (items+2)/3/256},
	} {
		query := func() ([]Item, error) { return sess.Query(tc.text) }
		if !tc.oneShot {
			st, err := sess.Prepare(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			query = st.Query
		}
		rows := 0
		run := func() {
			out, err := query()
			if err != nil {
				t.Fatal(err)
			}
			rows = len(out)
		}
		allocs := testing.AllocsPerRun(10, run)
		if rows != tc.rows || allocs > tc.max {
			t.Errorf("%s: %d rows for %.0f allocations, want %d rows for at most %.0f", tc.text, rows, allocs, tc.rows, tc.max)
		}
		if tc.maxBytes == 0 {
			continue
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > tc.maxBytes {
			t.Errorf("%s: %d bytes a query, want at most %d", tc.text, bytes, tc.maxBytes)
		}
	}
}

// churn runs st, other plans and a vote commit 10 times from each of 2
// goroutines, and waits for them: executions of one plan that share its id
// buffer, and commits that change its answer. Each vote sets the votes of
// one of the first 20 green items to "7".
func churn(t *testing.T, db *DB, st *Stmt, items int) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, 2) // one per goroutine
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				k := 3 * ((10*g + n) % (items / 3))
				if _, err := st.Query(); err != nil {
					errc <- err
					return
				}
				for _, q := range []string{
					catalogPoint(k),
					`document("db")/{red}descendant::item/{red}child::name`,
					`document("db")/{green}descendant::item[{green}child::votes = "7"]`, // values from subtrees
				} {
					if _, err := db.Query(q); err != nil {
						errc <- fmt.Errorf("%s: %v", q, err)
						return
					}
				}
				vote := catalogItem(k) + `, $v in $i/{green}child::votes update $i { replace $v with "7" }`
				if res, err := db.Update(vote); err != nil || res.Tuples != 1 {
					errc <- fmt.Errorf("vote: %+v, %v", res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// sameItems reports how got differs from want in node ids, colours or
// values, or "" when it does not.
func sameItems(got, want []Item) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node.ID() != want[i].Node.ID() || got[i].Color != want[i].Color || got[i].Value != want[i].Value {
			return fmt.Sprintf("item %d is %d %s %q, want %d %s %q", i, got[i].Node.ID(), got[i].Color, got[i].Value, want[i].Node.ID(), want[i].Color, want[i].Value)
		}
	}
	return ""
}

// cloneItems copies items and their values, so that a comparison does not
// read the memory it checks.
func cloneItems(items []Item) []Item {
	out := slices.Clone(items)
	for i := range out {
		out[i].Value = strings.Clone(out[i].Value)
	}
	return out
}

// TestConcurrentRunsLeaveKeptItemsAlone: the items of one Stmt.Query share
// no memory with any later answer that could change it. Their plan's next
// runs reuse its id buffer, their values are views of a snapshot's frozen
// records, and commits change the answer, yet the kept nodes and values stay
// what they were.
func TestConcurrentRunsLeaveKeptItemsAlone(t *testing.T) {
	const items = 300
	db := catalogDB(items)
	st, err := db.Prepare(`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kept, err := st.Query()
	if err != nil || len(kept) != items/3 {
		t.Fatalf("%d votes, %v", len(kept), err)
	}
	want := cloneItems(kept)
	churn(t, db, st, items)
	if diff := sameItems(kept, want); diff != "" {
		t.Fatalf("kept items changed: %s", diff)
	}
	if now, err := st.Query(); err != nil || sameItems(now, want) == "" {
		t.Fatalf("the commits did not change the answer (%v)", err)
	}
}

// TestConcurrentRunsLeaveQueryRowsAlone: a Rows from QueryRows belongs to
// its caller, so its ids go back to the plan only when it closes them: across
// the same runs and commits its Items still equal the answer of its own
// generation.
// The statement's answer shrinks as votes turn to "7", so the plan's later
// runs write other ids into a buffer no larger than the first.
func TestConcurrentRunsLeaveQueryRowsAlone(t *testing.T) {
	const items = 300
	db := catalogDB(items)
	st, err := db.Prepare(`document("db")/{green}descendant::votes[contains(., "1")]`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := st.QueryRows(context.Background())
	if err != nil || rows.sp == nil {
		t.Fatalf("want rows on the snapshot route: %+v, %v", rows, err)
	}
	answer, err := st.Query() // nothing commits in between: the same generation
	if err != nil {
		t.Fatal(err)
	}
	want := cloneItems(answer)
	churn(t, db, st, items)
	got, err := rows.Items()
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameItems(got, want); diff != "" {
		t.Fatalf("held rows changed: %s", diff)
	}
	if now, err := st.Query(); err != nil || sameItems(now, want) == "" {
		t.Fatalf("the commits did not change the answer (%v)", err)
	}
}

// TestExplainNamesOutputRoute: Explain says why a plan has no Dedup, which
// order the answer is in and why, and where the values come from.
func TestExplainNamesOutputRoute(t *testing.T) {
	db := catalogDB(30)
	for text, want := range map[string]string{
		`document("db")/{red}descendant::item/{red}child::name`:                          "output: col 0 {red}name, distinct by construction (no Dedup), in document order; values from snapshot content\n",
		catalogPoint(3) + `/{red}parent::item`:                                           "output: col 1 {red}item, made distinct by the plan's Dedup, in document order; values from snapshot subtree\n",
		`for $i in document("db")/{green}descendant::item return $i/{green}child::votes`: "output: col 1 {green}votes, distinct by construction (no Dedup), in document order, FLWOR folded into {green}//item/votes; values from snapshot content\n",
		`for $i in document("db")/{green}descendant::item return $i/{red}child::name`:    "output: col 1 {red}name, distinct by construction (no Dedup), in binding order; values from snapshot content\n",
	} {
		ex, err := db.Explain(text)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(ex, want) || strings.Contains(ex, "Dedup[") != strings.Contains(want, "plan's Dedup") {
			t.Errorf("Explain(%s) =\n%swant it to end in\n%s", text, ex, want)
		}
	}
}

// TestRowsPinTheirGeneration: a Rows is answered from one snapshot and
// yields that generation's values however many commits follow, and after
// DB.Close — through Items and through Each alike. Close is optional.
func TestRowsPinTheirGeneration(t *testing.T) {
	const items = 30
	db := catalogDB(items)
	sess := db.Session()
	const q = `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`
	want, err := sess.Query(q)
	if err != nil || len(want) != items/3 {
		t.Fatalf("%d votes, %v", len(want), err)
	}
	rows, err := sess.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20; n++ {
		src := catalogItem(3*(n%(items/3))) + `, $v in $i/{green}child::votes update $i { replace $v with "v` + strconv.Itoa(n) + `" }`
		if res, err := db.Update(src); err != nil || res.Tuples != 1 {
			t.Fatalf("vote %d: %+v, %v", n, res, err)
		}
	}
	if now := db.MustQuery(q); now[0].Value != "v10" {
		t.Fatalf("the votes did not commit: first is %q", now[0].Value)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := rows.Items()
	if err != nil || rows.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("held rows: Len %d, %d items, %v; want %d", rows.Len(), len(got), err, len(want))
	}
	i := 0
	err = rows.Each(0, rows.Len(), func(node NodeID, color Color, value []byte) {
		if got[i] != want[i] || node != want[i].Node.ID() || color != want[i].Color || string(value) != want[i].Value {
			t.Errorf("row %d: item %v %q, visited %d %q, want %v %q", i, got[i].Node, got[i].Value, node, value, want[i].Node, want[i].Value)
		}
		i++
	})
	if err != nil || i != len(want) {
		t.Fatalf("Each visited %d rows, %v", i, err)
	}
	// An element the generation has no node for fails both ways of reading.
	bad := Rows{sp: rows.sp, ids: append(slices.Clone(rows.ids), 1<<40), color: "green"}
	if _, err := resolved(bad, nil); err == nil || !strings.Contains(err.Error(), "has no node") {
		t.Fatalf("resolved a row without a node: %v", err)
	}
	if _, err := bad.Items(); err == nil {
		t.Fatal("Items read a row without a node")
	}
}

// TestFlworReturnsInBindingOrder: a one-variable FLWOR answers in binding
// order on the compiled route, as the evaluator does, where that is not
// document order — when one binding is nested in another, and when the return
// crosses into a colour that orders the same elements differently.
func TestFlworReturnsInBindingOrder(t *testing.T) {
	must := func(n *core.Node, err error) *core.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// <r><a><b>b1</b><a><b>b2</b></a><b>b3</b></a></r>
	nested := core.NewDatabase("red")
	a1 := must(nested.AddElement(must(nested.AddElement(nested.Document(), "r", "red")), "a", "red"))
	must(nested.AddElementText(a1, "b", "red", "b1"))
	must(nested.AddElementText(must(nested.AddElement(a1, "a", "red")), "b", "red", "b2"))
	must(nested.AddElementText(a1, "b", "red", "b3"))
	// Red items n0..n3, adopted into green in reverse order.
	adopted := core.NewDatabase("red", "green")
	catalog := must(adopted.AddElement(adopted.Document(), "catalog", "red"))
	featured := must(adopted.AddElement(adopted.Document(), "featured", "green"))
	var items []*core.Node
	for k := 0; k < 4; k++ {
		item := must(adopted.AddElement(catalog, "item", "red"))
		must(adopted.AddElementText(item, "name", "red", "n"+strconv.Itoa(k)))
		items = append(items, item)
	}
	for k := len(items) - 1; k >= 0; k-- {
		if err := adopted.Adopt(featured, items[k], "green"); err != nil {
			t.Fatal(err)
		}
		must(adopted.AddElementText(items[k], "votes", "green", "7"))
	}

	for _, tc := range []struct {
		db   *core.Database
		text string
		want []string
	}{
		{nested, `for $i in document("db")/{red}descendant::a return $i/{red}child::b`, []string{"b1", "b3", "b2"}},
		{adopted, `for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`, []string{"n3", "n2", "n1", "n0"}},
	} {
		db := wrap(tc.db)
		sess := db.Session()
		values := func(items []Item) []string {
			out := make([]string, len(items))
			for i, it := range items {
				out[i] = it.Value
			}
			return out
		}
		got, err := sess.Query(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		ev, err := db.evalItems(tc.text)
		db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(values(got), tc.want) || !slices.Equal(values(ev), tc.want) {
			t.Errorf("%s: compiled %v, evaluator %v, want %v", tc.text, values(got), values(ev), tc.want)
		}
		if st := sess.Stats(); st.Compiled != 1 || st.Fallbacks != 0 {
			t.Errorf("%s: %+v, want the compiled route", tc.text, st)
		}
		sess.Close()
	}
}

// TestFoldedFlworFollowsNesting: a prepared FLWOR folded into its path while
// its items cannot nest stops being folded once an insert nests one item in
// another — the proof lasts as long as the plan's stats epoch — and answers
// in binding order from then on.
func TestFoldedFlworFollowsNesting(t *testing.T) {
	db := catalogDB(30)
	sess := db.Session()
	defer sess.Close()
	const q = `for $i in document("db")/{red}descendant::item return $i/{red}child::name`
	stmt, err := sess.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	check := func(when string) []string {
		t.Helper()
		got, err := stmt.Query()
		if err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		want, err := db.evalItems(q)
		db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: compiled %d items, the evaluator %d, or the order differs", when, len(got), len(want))
		}
		values := make([]string, len(got))
		for i, it := range got {
			values[i] = it.Value
		}
		return values
	}
	check("flat")
	if ex, err := db.Explain(q); err != nil || !strings.Contains(ex, "FLWOR folded into") {
		t.Fatalf("flat catalog: want the FLWOR folded:\n%s%v", ex, err)
	}
	// Item 3 becomes <item><name>Item 3</name><item><name>Inner</name></item><name>Late</name></item>.
	item3 := `for $i in document("db")/{red}descendant::item[{red}child::name = "Item 3"] update $i `
	for _, ins := range []string{`{ insert <item><name>Inner</name></item> }`, `{ insert <name>Late</name> }`} {
		if res, err := db.Update(item3 + ins); err != nil || res.Tuples != 1 {
			t.Fatalf("%s: %+v, %v", ins, res, err)
		}
	}
	got := check("nested")
	if i := slices.Index(got, "Item 3"); i < 0 || !slices.Equal(got[i:i+3], []string{"Item 3", "Late", "Inner"}) {
		t.Errorf("nested: %v, want Item 3, Late, Inner in binding order", got)
	}
	if ex, err := db.Explain(q); err != nil || !strings.Contains(ex, "in binding order") {
		t.Errorf("nested catalog: want binding order:\n%s%v", ex, err)
	}
}
