package colorfulxml

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
	"colorfulxml/internal/wal"
)

// Micro-benchmarks of the write path's layers (ROADMAP item 1), on the
// repository benchmark's catalog: what a commit pays to clone the snapshot,
// to bind an update's tuples, and to apply each kind of change.

// writeCatalog is the benchmark's catalog with its loaded store image.
type writeCatalog struct {
	*fixtures.Catalog
	st *storage.Store
}

func newWriteCatalog(b testing.TB, items int) *writeCatalog {
	b.Helper()
	c := &writeCatalog{Catalog: fixtures.NewCatalog(items)}
	st, err := storage.Load(c.DB, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.ScanTag("red", "name"); err != nil { // pool the pages, as a serving snapshot has
		b.Fatal(err)
	}
	c.st = st
	return c
}

var writeBenchSizes = []int{1500, 20000}

var cloneSink *storage.Store

// BenchmarkStoreClone: the snapshot clone every commit starts with. The two
// sizes must cost the same.
func BenchmarkStoreClone(b *testing.B) {
	for _, items := range writeBenchSizes {
		b.Run(strconv.Itoa(items), func(b *testing.B) {
			c := newWriteCatalog(b, items)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = c.st.Clone()
			}
		})
	}
}

var tupleSink update.Tuples

// voteBind returns the three binds of the repository benchmark's vote
// update (name probe -> parent item -> green votes) on a catalog of the
// given size: through a plan compiled for the bind, through the plan the
// executor's cache holds for the update's shape, and through the
// tree-walking evaluator. Each binds one tuple.
func voteBind(tb testing.TB, items int) (compiled, cached, evaluator func() (update.Tuples, error)) {
	c := newWriteCatalog(tb, items)
	k := 3 * (items / 6)
	u, err := update.Parse(`for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) +
		`"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "57" }`)
	if err != nil {
		tb.Fatal(err)
	}
	ex := update.NewExecutor(c.DB)
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: c.st}}
	return func() (update.Tuples, error) {
			ex.Plans = plan.NewCache(1)
			return ex.BindCompiled(u, c.st, opt)
		},
		func() (update.Tuples, error) { return ex.BindCompiled(u, c.st, opt) },
		func() (update.Tuples, error) { return ex.Bind(u) }
}

// BenchmarkUpdateBind: binding the vote update to its one tuple, by each
// route: compile included, warm from the plan cache, the tree walk.
func BenchmarkUpdateBind(b *testing.B) {
	for _, route := range []string{"compiled", "cached", "evaluator"} {
		for _, items := range writeBenchSizes {
			b.Run(fmt.Sprintf("%s/%d", route, items), func(b *testing.B) {
				compiled, cached, evaluator := voteBind(b, items)
				bind := map[string]func() (update.Tuples, error){
					"compiled": compiled, "cached": cached, "evaluator": evaluator,
				}[route]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					tupleSink, err = bind()
					if err != nil || len(tupleSink) != 1 {
						b.Fatalf("%d tuples, err %v", len(tupleSink), err)
					}
				}
			})
		}
	}
}

// oneShotTexts renders n one-shot texts of each of the repository
// benchmark's three update shapes, with the literals its schedule varies:
// the item's name, the vote, the tag.
func oneShotTexts(items, n int) map[string][]string {
	texts := map[string][]string{}
	for i := 0; i < n; i++ {
		k := (7919 * i) % items
		forItem := `for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) + `"], $i in $n/{red}parent::item`
		tag := "t" + strconv.Itoa(i)
		texts["vote"] = append(texts["vote"], forItem+`, $v in $i/{green}child::votes update $i { replace $v with "`+strconv.Itoa(50+i%50)+`" }`)
		texts["tag-add"] = append(texts["tag-add"], forItem+` update $i { insert <tag>`+tag+`</tag> }`)
		texts["tag-del"] = append(texts["tag-del"], forItem+`, $t in $i/{red}child::tag[. = "`+tag+`"] update $i { delete $t }`)
	}
	return texts
}

var updateSink *update.Update

// BenchmarkUpdateOneShot: what DB.Update pays to turn a one-shot text into
// an update, per shape of the repository benchmark, each text with literals
// of its own: Parse, as before update templates, and the template the plan
// cache keeps for the shape (update.ParseCached: one lex, no parse).
func BenchmarkUpdateOneShot(b *testing.B) {
	const n = 1024
	texts := oneShotTexts(1500, n)
	for _, shape := range []string{"vote", "tag-add", "tag-del"} {
		for _, route := range []string{"parse", "template"} {
			b.Run(shape+"/"+route, func(b *testing.B) {
				cache := plan.NewCache(0)
				parse := func(src string) (*update.Update, error) { return update.ParseCached(src, cache) }
				if route == "parse" {
					parse = update.Parse
				}
				if _, err := parse(texts[shape][n-1]); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if updateSink, err = parse(texts[shape][i%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWarmUpdateBindAllocatesNoScratch: a bind whose plan the cache holds
// compiles nothing, and its execution draws its operator tree, context,
// batches and arena from the plan's memory pool, so what it allocates is its
// tuples and the sort closures of two operators. Binding the vote's one
// tuple costs 845 B warm on a 2-vCPU Xeon (8.0 kB compile included, the
// compile and one row of unpooled scratch, before binding plans were
// cached).
func TestWarmUpdateBindAllocatesNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not counted under the race detector (race_on_test.go)")
	}
	const runs = 50
	_, bind, _ := voteBind(t, 1500)
	for i := 0; i < 2; i++ { // compile, then grow the pool to the plan's needs
		if _, err := bind(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if tuples, err := bind(); err != nil || len(tuples) != 1 {
			t.Fatalf("%d tuples, err %v", len(tuples), err)
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 1<<10 {
		t.Errorf("a warm one-tuple bind allocated %d bytes, want at most 1 kB", bytes)
	}
}

// BenchmarkApplyChange: Store.ApplyChanges of one batch, per kind of
// core.Change and per statement that logs several, on the 1 500-item
// catalog. Batches are applied in runs of 64 to distinct targets on one
// clone — or, for the inserts that say so, to one parent, which is what fills
// an interval — the way recovery replays a log, so the clone's cost and its
// first-write page copies are spread over the run.
func BenchmarkApplyChange(b *testing.B) {
	const run = 64
	c := newWriteCatalog(b, 1500)
	catalog := core.Parent(c.Items[0], "red").ID()
	fresh := core.NodeID(c.DB.NumNodes() + 1000)
	leaf := func(j int, parent core.NodeID, tag string) core.Change {
		return core.Change{Kind: core.ChangeInsertLeaf, Elem: fresh + core.NodeID(j), Parent: parent,
			Color: "red", Tag: tag, Content: "t" + strconv.Itoa(j)}
	}
	// A twin of the catalog has its ids, so what its inserts before the last
	// item log (that item and its name leaving, the new item, the two
	// arriving again) applies, batch after batch, to a clone of c's store.
	twin := fixtures.NewCatalog(1500)
	last := twin.Items[len(twin.Items)-1]
	before := make([][]core.Change, run)
	for j := range before {
		if err := twin.DB.InsertBefore(core.Parent(last, "red"), twin.DB.MustElement("item", "red"), last, "red"); err != nil {
			b.Fatal(err)
		}
		before[j] = twin.DB.DrainChanges()
	}
	kinds := []struct {
		name string
		at   func(j int) []core.Change
	}{
		{"content", func(j int) []core.Change {
			return []core.Change{{Kind: core.ChangeContent, Elem: c.Votes[j].ID(), Content: "57"}}
		}},
		{"attrs", func(j int) []core.Change {
			return []core.Change{{Kind: core.ChangeAttrs, Elem: c.Items[j].ID(), Attrs: [][2]string{{"rank", strconv.Itoa(j)}}}}
		}},
		{"insert-leaf", func(j int) []core.Change { return []core.Change{leaf(j, c.Items[j].ID(), "tag")} }},
		{"insert-leaf-append", func(j int) []core.Change { return []core.Change{leaf(j, catalog, "item")} }},
		{"insert-leaf-same-parent", func(j int) []core.Change { return []core.Change{leaf(j, c.Items[750].ID(), "tag")} }},
		{"subtree", func(j int) []core.Change { // item + name, as the change log carries them: pre-order leaves
			return []core.Change{leaf(2*j, catalog, "item"), leaf(2*j+1, fresh+core.NodeID(2*j), "name")}
		}},
		{"insert-before", func(j int) []core.Change { return before[j] }},
		{"rename", func(j int) []core.Change { // an item, which has element children, in red and green
			return []core.Change{{Kind: core.ChangeAttrs, Elem: c.Items[3*j].ID(), Tag: "product", Attrs: core.AttrPairs(c.Items[3*j])}}
		}},
		{"add-color", func(j int) []core.Change {
			return []core.Change{{Kind: core.ChangeAddColor, Elem: c.Items[3*j+1].ID(), Parent: c.Featured.ID(), Color: "green"}}
		}},
		{"delete-subtree", func(j int) []core.Change {
			return []core.Change{{Kind: core.ChangeDeleteSubtree, Elem: c.Names[j].ID(), Color: "red"}}
		}},
		{"add-database-color", func(j int) []core.Change {
			return []core.Change{{Kind: core.ChangeAddDatabaseColor, Color: core.Color("c" + strconv.Itoa(j))}}
		}},
	}
	for _, kind := range kinds {
		b.Run(kind.name, func(b *testing.B) {
			changes := make([][]core.Change, run)
			for j := range changes {
				changes[j] = kind.at(j)
			}
			var st *storage.Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%run == 0 {
					st = c.st.Clone()
				}
				if err := st.ApplyChanges(changes[i%run]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var loadSink *storage.Store

// BenchmarkRefreshAfterDelta: what a snapshot refresh costs after a delta of
// 4 097 and of 16 385 changes on the 20 000-item catalog — a clone of the
// store and the replay of the delta onto it, which is what a commit that
// takes the change log past its bound pays — next to a storage.Load of the
// catalog, the rebuild it replaces. The delta is the repository benchmark's
// populate going on: items appended to the catalog, each with its name.
func BenchmarkRefreshAfterDelta(b *testing.B) {
	const items = 20000
	c := newWriteCatalog(b, items)
	catalog := core.Parent(c.Items[0], "red")
	for _, n := range []int{4097, 16385} {
		b.Run("replay-"+strconv.Itoa(n), func(b *testing.B) {
			twin := fixtures.NewCatalog(items) // c's ids, so its log applies to c's store
			parent := twin.DB.NodeByID(catalog.ID())
			for k := 0; twin.DB.LoggedChanges() < n; k++ {
				item, err := twin.DB.AddElement(parent, "item", "red")
				if err != nil {
					b.Fatal(err)
				}
				if twin.DB.LoggedChanges() < n {
					if _, err := twin.DB.AddElementText(item, "name", "red", "Item "+strconv.Itoa(items+k)); err != nil {
						b.Fatal(err)
					}
				}
			}
			delta := twin.DB.DrainChanges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = c.st.Clone()
				if err := cloneSink.ApplyChanges(delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := storage.Load(c.DB, 0)
			if err != nil {
				b.Fatal(err)
			}
			loadSink = st
		}
	})
}

// populateDurable opens a durable NoSync database in dir, with no automatic
// checkpoint, and fills it through the facade as the repository benchmark's
// populate does: a red catalog of items with names, every third item adopted
// into the green featured list with a vote.
func populateDurable(b *testing.B, dir string, items int) *colorful.DB {
	db, err := colorful.OpenOptions(dir, colorful.Options{NoSync: true, CheckpointBytes: -1}, "red", "green")
	if err != nil {
		b.Fatal(err)
	}
	must := func(n *colorful.Node, err error) *colorful.Node {
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	catalog := must(db.AddElement(db.Document(), "catalog", "red"))
	featured := must(db.AddElement(db.Document(), "featured", "green"))
	for k := 0; k < items; k++ {
		item := must(db.AddElement(catalog, "item", "red"))
		must(db.AddElementText(item, "name", "red", "Item "+strconv.Itoa(k)))
		if k%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				b.Fatal(err)
			}
			must(db.AddElementText(item, "votes", "green", strconv.Itoa(k%50)))
		}
	}
	return db
}

// BenchmarkRecover: storage.OpenDurable of a directory holding nothing but
// the log of the repository benchmark's populate through the facade — one
// record per AddElement, AddElementText and Adopt, 4 003 of them at 1 500
// items. ns/record must not depend on the size: replay is linear in the log.
func BenchmarkRecover(b *testing.B) {
	for _, items := range []int{1500, 6000} {
		b.Run(strconv.Itoa(items), func(b *testing.B) {
			dir := b.TempDir()
			if err := populateDurable(b, dir, items).Close(); err != nil {
				b.Fatal(err)
			}
			records := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dur, _, stats, err := storage.OpenDurable(dir, storage.DurableOptions{Sync: wal.SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				records += stats.RecordsReplayed
				if err := dur.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

// BenchmarkCheckpoint: one vote update and then DB.Checkpoint, on the
// populated durable catalog. The checkpoint writes the snapshot the update
// published, so what it costs is the image write.
func BenchmarkCheckpoint(b *testing.B) {
	for _, items := range []int{1500, 20000} {
		b.Run(strconv.Itoa(items), func(b *testing.B) {
			db := populateDurable(b, b.TempDir(), items)
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := 3 * (7919 * i % (items / 3))
				res, err := db.Update(`for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) +
					`"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "` + strconv.Itoa(50+i%50) + `" }`)
				if err != nil || res.Tuples != 1 {
					b.Fatalf("vote on item %d: %d tuples, %v", k, res.Tuples, err)
				}
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
