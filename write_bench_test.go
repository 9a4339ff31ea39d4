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

// voteBind returns the two binds of the repository benchmark's vote update
// (name probe -> parent item -> green votes) on a catalog of the given size:
// through the compiled plan on the store, and through the tree-walking
// evaluator. Each binds one tuple.
func voteBind(tb testing.TB, items int) (compiled, evaluator func() (update.Tuples, error)) {
	c := newWriteCatalog(tb, items)
	k := 3 * (items / 6)
	u, err := update.Parse(`for $n in document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(k) +
		`"], $i in $n/{red}parent::item, $v in $i/{green}child::votes update $i { replace $v with "57" }`)
	if err != nil {
		tb.Fatal(err)
	}
	ex := update.NewExecutor(c.DB)
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: c.st}}
	return func() (update.Tuples, error) { return ex.BindCompiled(u, c.st, opt) },
		func() (update.Tuples, error) { return ex.Bind(u) }
}

// BenchmarkUpdateBind: binding the vote update to its one tuple, by each
// route.
func BenchmarkUpdateBind(b *testing.B) {
	for _, route := range []string{"compiled", "evaluator"} {
		for _, items := range writeBenchSizes {
			b.Run(fmt.Sprintf("%s/%d", route, items), func(b *testing.B) {
				bind, evaluator := voteBind(b, items)
				if route == "evaluator" {
					bind = evaluator
				}
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

// TestUpdateBindAllocatesOneRow: a compiled bind runs unpooled, under the
// writer lock, once per update, so its scratch is what it allocates. Sized
// to the rows it passes, binding the vote's one tuple costs a few kB (8.1 on
// a 2-vCPU Xeon); with every batch buffer starting at 32 rows and every arena
// chunk at 256 nodes it cost 63.
func TestUpdateBindAllocatesOneRow(t *testing.T) {
	const runs = 50
	bind, _ := voteBind(t, 1500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if tuples, err := bind(); err != nil || len(tuples) != 1 {
			t.Fatalf("%d tuples, err %v", len(tuples), err)
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 16<<10 {
		t.Errorf("a one-tuple bind allocated %d bytes, want at most 16 kB", bytes)
	}
}

// BenchmarkApplyChange: Store.ApplyChanges of one batch, per kind of
// core.Change, on the 1 500-item catalog (ChangeComplex has no apply: it
// forces a rebuild). Batches are applied in runs of 64 to distinct targets on
// one clone — or, for the inserts that say so, to one parent, which is what
// fills an interval — the way recovery replays a log, so the clone's cost and
// its first-write page copies are spread over the run.
func BenchmarkApplyChange(b *testing.B) {
	const run = 64
	c := newWriteCatalog(b, 1500)
	catalog := core.Parent(c.Items[0], "red").ID()
	fresh := core.NodeID(c.DB.NumNodes() + 1000)
	leaf := func(j int, parent core.NodeID, tag string) core.Change {
		return core.Change{Kind: core.ChangeInsertLeaf, Elem: fresh + core.NodeID(j), Parent: parent,
			Color: "red", Tag: tag, Content: "t" + strconv.Itoa(j)}
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

// BenchmarkRecover: storage.OpenDurable of a directory holding nothing but
// the log of the repository benchmark's populate through the facade — one
// record per AddElement, AddElementText and Adopt, 4 003 of them at 1 500
// items. ns/record must not depend on the size: replay is linear in the log.
func BenchmarkRecover(b *testing.B) {
	for _, items := range []int{1500, 6000} {
		b.Run(strconv.Itoa(items), func(b *testing.B) {
			dir := b.TempDir()
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
				if k%1000 == 999 { // drain core's change log: overflowing it checkpoints
					if err := db.Refresh(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := db.Close(); err != nil {
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
