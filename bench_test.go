// Package colorfulxml's root benchmark suite regenerates every table and
// figure of the paper's Section 7 as Go benchmarks:
//
//	BenchmarkTable1/*    storage requirement (Table 1): loading each
//	                     representation, with element/structural-node counts
//	                     and data/index bytes reported as metrics
//	BenchmarkTable2/*    query and update processing time (Table 2), one
//	                     sub-benchmark per query and representation, each
//	                     compiled from its text
//	BenchmarkFigure11/*  query complexity: path expressions per query text
//	BenchmarkFigure12/*  query complexity: variable bindings per query text
//	BenchmarkAblation*   the design-choice ablations called out in DESIGN.md
//	BenchmarkResultMapping/*, BenchmarkColdPointQuery, BenchmarkStructJoin/*
//	                     the read path's layers on the repository benchmark's
//	                     catalog (next to write_bench_test.go's write path)
//
// Run with: go test -bench=. -benchmem
package colorfulxml

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/workload"
)

const (
	benchTPCWScale   = 2
	benchSigmodScale = 2
	benchSeed        = 1
)

var (
	benchOnce sync.Once
	benchTP   *workload.Stores
	benchSG   *workload.Stores
	benchDS   *datagen.Dataset
	benchErr  error
)

func benchStores(b *testing.B) (*workload.Stores, *workload.Stores) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = datagen.TPCW(datagen.TPCWConfig{Scale: benchTPCWScale, Seed: benchSeed})
		if benchErr != nil {
			return
		}
		benchTP, benchErr = workload.LoadTPCW(benchTPCWScale, benchSeed)
		if benchErr != nil {
			return
		}
		benchSG, benchErr = workload.LoadSigmod(benchSigmodScale, benchSeed)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTP, benchSG
}

// BenchmarkTable1 measures the bulk load of each representation and reports
// the Table 1 storage numbers as benchmark metrics.
func BenchmarkTable1(b *testing.B) {
	benchStores(b)
	for _, v := range workload.Variants {
		b.Run(fmt.Sprintf("TPCW_%s", v), func(b *testing.B) {
			var db *core.Database
			switch v {
			case workload.MCT:
				db = benchDS.MCT
			case workload.Shallow:
				db = benchDS.Shallow
			default:
				db = benchDS.Deep
			}
			var st *storage.Store
			for i := 0; i < b.N; i++ {
				var err error
				st, err = storage.Load(db, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			counts := st.Counts()
			data, _ := st.DataBytes()
			b.ReportMetric(float64(counts.Elements), "elements")
			b.ReportMetric(float64(counts.Attributes), "attrs")
			b.ReportMetric(float64(counts.ContentNodes), "contentNodes")
			b.ReportMetric(float64(counts.StructNodes), "structNodes")
			b.ReportMetric(float64(data)/(1<<20), "dataMB")
			b.ReportMetric(float64(st.IndexBytes())/(1<<20), "indexMB")
		})
	}
}

// BenchmarkTable2Queries times every Table 2 query on every representation
// (warm cache, like the paper's reported numbers), each compiled once and run
// as a prepared statement. The results metric counts rows: one per copy on
// deep where a query reaches a replicated entity (the paper's *D rows).
func BenchmarkTable2Queries(b *testing.B) {
	tp, sg := benchStores(b)
	bench := func(qs []*workload.Query, st *workload.Stores) {
		for _, q := range qs {
			for _, v := range workload.Variants {
				b.Run(fmt.Sprintf("%s_%s", q.ID, v), func(b *testing.B) {
					c, err := workload.Compile(q, st, v)
					if err != nil {
						b.Fatal(err)
					}
					// One untimed run first, as Table 2 does.
					res, _, err := workload.Run(c, st.Of(v))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(len(res)), "results")
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := workload.Run(c, st.Of(v)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	bench(workload.TPCWQueries(), tp)
	bench(workload.SigmodQueries(), sg)
}

// BenchmarkTable2Updates times every Table 2 update, text to applied change
// (workload.RunUpdate: parse, compiled bind, apply, change-log replay onto
// the store). One store is loaded per sub-benchmark; the update is
// idempotent (a content rewrite), so repeated applications measure the warm
// update path without paying a store rebuild per iteration. The nodesTouched
// metric is taken from the first application (the Table 2 "results"
// column).
func BenchmarkTable2Updates(b *testing.B) {
	bench := func(us []*workload.UpdateSpec, load func() (*workload.Stores, error)) {
		for _, u := range us {
			for _, v := range workload.Variants {
				b.Run(fmt.Sprintf("%s_%s", u.ID, v), func(b *testing.B) {
					st, err := load()
					if err != nil {
						b.Fatal(err)
					}
					res, err := workload.RunUpdate(u, st, v)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := workload.RunUpdate(u, st, v); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.NodesTouched), "nodesTouched")
				})
			}
		}
	}
	bench(workload.TPCWUpdates(), func() (*workload.Stores, error) {
		return workload.LoadTPCW(1, benchSeed)
	})
	bench(workload.SigmodUpdates(), func() (*workload.Stores, error) {
		return workload.LoadSigmod(1, benchSeed)
	})
}

// BenchmarkFigure11 reports the number of path expressions of every query
// formulation (the figure's metric); BenchmarkFigure12 the variable
// bindings. The timed work is the parse, the metrics are the figures.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, true) }

// BenchmarkFigure12 reports variable-binding counts (see BenchmarkFigure11).
func BenchmarkFigure12(b *testing.B) { benchFigure(b, false) }

func benchFigure(b *testing.B, paths bool) {
	for _, q := range append(workload.TPCWQueries(), workload.SigmodQueries()...) {
		q := q
		for _, v := range workload.Variants {
			v := v
			b.Run(fmt.Sprintf("%s_%s", q.ID, v), func(b *testing.B) {
				var c workload.Complexity
				var err error
				for i := 0; i < b.N; i++ {
					c, err = workload.QueryComplexity(q.Text[v])
					if err != nil {
						b.Fatal(err)
					}
				}
				if paths {
					b.ReportMetric(float64(c.PathExprs), "pathExprs")
				} else {
					b.ReportMetric(float64(c.Bindings), "bindings")
				}
			})
		}
	}
}

// --- Read-path layers (ROADMAP item 3) --------------------------------------

var itemSink []colorful.Item

// BenchmarkResultMapping: what a prepared statement costs to hand its answer
// over as items — one row (an index probe; the fixed cost) and the 20 000
// names of the catalog (a summary probe; the per-row cost: a reference, a
// node lookup and a content copy each). Allocations are the gated number
// (colorful.TestResultAllocations): a constant, the []Item, and one 4 KiB
// chunk per few hundred values; the answer's ids reuse the plan's buffer.
func BenchmarkResultMapping(b *testing.B) {
	const items = 20000
	db := benchNames(b, items)
	sess := db.Session()
	defer sess.Close()
	for _, q := range []struct {
		rows int
		text string
	}{
		{1, `document("db")/{red}descendant::name[. = "Item 9999"]`},
		{items, `document("db")/{red}descendant::item/{red}child::name`},
	} {
		rows, text := q.rows, q.text
		b.Run(strconv.Itoa(rows), func(b *testing.B) {
			st, err := sess.Prepare(text)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if itemSink, err = st.Query(); err != nil || len(itemSink) != rows {
					b.Fatalf("%d rows, %v", len(itemSink), err)
				}
			}
		})
	}
}

// benchNames builds a catalog of items with one red name each.
func benchNames(b *testing.B, items int) *colorful.DB {
	b.Helper()
	db := colorful.New("red", "green")
	catalog, err := db.AddElement(db.Document(), "catalog", "red")
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < items; k++ {
		item, err := db.AddElement(catalog, "item", "red")
		if err == nil {
			_, err = db.AddElementText(item, "name", "red", "Item "+strconv.Itoa(k))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkColdPointQuery: a one-shot point query through a session, each
// for a text the plan cache has not seen — parse, compile and one run on the
// new plan's empty memory pool, as one in ten of the repository benchmark's
// net-point queries is. Bytes per op are the number to watch: execution
// scratch is sized to the rows the plan holds (DESIGN.md §12).
func BenchmarkColdPointQuery(b *testing.B) {
	const items = 20000
	db := benchNames(b, items)
	sess := db.Session()
	defer sess.Close()
	// The snapshot, its catalog statistics and path summary are built once.
	if _, err := sess.Query(`document("db")/{red}descendant::name[. = "none"]`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		text := `document("db")/{red}descendant::name[. = "Item ` + strconv.Itoa(i%items) + `"]`
		if itemSink, err = sess.Query(text); err != nil || len(itemSink) != 1 {
			b.Fatalf("%d rows, %v", len(itemSink), err)
		}
	}
}

// BenchmarkStructJoin: the three lowerings of the benchmark's flwor class —
// 6 667 green items with their votes. summary is the path-summary probe
// PathScan{green}//item/votes the compiler picks, because green items never
// nest and the FLWOR is that path; merge is the stack-tree join of two index
// scans it weighs against it, and index the same join through the interval
// index it builds for inputs that are not start-ordered.
func BenchmarkStructJoin(b *testing.B) {
	c := newWriteCatalog(b, 20000)
	if _, err := c.st.PathSummary("green"); err != nil { // built once, as a serving snapshot's is
		b.Fatal(err)
	}
	for _, mode := range []string{"summary", "merge", "index"} {
		b.Run(mode, func(b *testing.B) {
			var plan engine.Op = &engine.PathScan{Color: "green", Steps: []storage.PathStep{{Tag: "item", Desc: true}, {Tag: "votes"}}}
			if mode != "summary" {
				plan = &engine.StructJoin{
					Anc: &engine.ScanTag{Color: "green", Tag: "item"}, Desc: &engine.ScanTag{Color: "green", Tag: "votes"},
					Axis: engine.ParentChild, Merge: mode == "merge",
				}
			}
			pool := &engine.MemPool{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := engine.ExecBatchesPooled(context.Background(), c.st, pool, plan.Clone(), func(*engine.Batch) error { return nil })
				if err != nil || m.RowsOut != len(c.Votes) {
					b.Fatalf("%d rows, %v", m.RowsOut, err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md Section 5) ---------------------------------------

// BenchmarkAblationCrossTree compares the two implementations of the color
// transition discussed in Section 6.2: following the element back-links
// (what the store does) versus an attribute-value based join through the id
// index (what the paper's prototype did; it notes "a more sophisticated
// implementation could bring down the cost of a color crossing").
func BenchmarkAblationCrossTree(b *testing.B) {
	tp, _ := benchStores(b)
	s := tp.MCT
	lines, err := s.ScanTag(datagen.ColCustomer, "orderline")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BackLink", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range lines {
				if _, ok, err := s.CrossTree(l.Elem, datagen.ColAuthor); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		}
	})
	b.Run("AttrValueJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range lines {
				// The attribute-join route: fetch the element's id, probe the
				// attribute index, then resolve the structural node.
				e, err := s.Elem(l.Elem)
				if err != nil {
					b.Fatal(err)
				}
				ids := s.EqAttr("id", e.Attr("id"))
				if len(ids) == 0 {
					b.Fatal("lost element")
				}
				if _, ok, err := s.StructOf(ids[0], datagen.ColAuthor); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		}
	})
}

// BenchmarkAblationJoinKind compares the join operators plans run: the
// structural join of orders with order lines (a merge of two index scans on
// the MCT store) versus the equivalent ID/IDREF value join on the shallow
// store (the paper's central cost asymmetry).
func BenchmarkAblationJoinKind(b *testing.B) {
	tp, _ := benchStores(b)
	for name, run := range map[string]struct {
		s    *storage.Store
		plan func() engine.Op
	}{
		"Structural": {tp.MCT, func() engine.Op {
			return &engine.StructJoin{
				Anc:  &engine.ScanTag{Color: datagen.ColCustomer, Tag: "order"},
				Desc: &engine.ScanTag{Color: datagen.ColCustomer, Tag: "orderline"},
				Axis: engine.ParentChild, Merge: true,
			}
		}},
		"Value": {tp.Shallow, func() engine.Op {
			return &engine.ValueJoin{
				Left:    &engine.ScanTag{Color: datagen.ColDoc, Tag: "orderline"},
				Right:   &engine.ScanTag{Color: datagen.ColDoc, Tag: "order"},
				LeftKey: engine.Key{Attr: "orderIdRef"}, RightKey: engine.Key{Attr: "id"},
			}
		}},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rows, _, err := engine.Exec(run.s, run.plan()); err != nil || len(rows) == 0 {
					b.Fatal(len(rows), err)
				}
			}
		})
	}
}

// BenchmarkAblationPlanOrder compares the two plan shapes of Section 6.2 for
// a query with a color transition: evaluate the single-color query first and
// cross late (small crossing input) versus crossing every candidate early.
func BenchmarkAblationPlanOrder(b *testing.B) {
	tp, _ := benchStores(b)
	s := tp.MCT
	addrs := func() engine.Op {
		return &engine.ExistsJoin{
			Input: &engine.ScanTag{Color: datagen.ColBilling, Tag: "address"},
			Probe: &engine.EqContent{Color: datagen.ColBilling, Tag: "country", Value: "Japan"},
			Axis:  engine.ParentChild,
		}
	}
	late := func() engine.Op {
		// Filter in billing first (selective), then cross the few survivors.
		orders := &engine.StructJoin{Anc: addrs(), Desc: &engine.ScanTag{Color: datagen.ColBilling, Tag: "order"},
			Axis: engine.ParentChild}
		return &engine.CrossColor{Input: orders, Col: 1, To: datagen.ColDate}
	}
	early := func() engine.Op {
		// Cross EVERY order into the date tree, then filter by billing.
		orders := &engine.ScanTag{Color: datagen.ColBilling, Tag: "order"}
		crossed := &engine.CrossColor{Input: orders, Col: 0, To: datagen.ColDate}
		return &engine.StructJoin{Anc: addrs(), Desc: crossed, Axis: engine.ParentChild}
	}
	for name, mk := range map[string]func() engine.Op{"CrossLate": late, "CrossEarly": early} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.Exec(s, mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEncoding compares interval-encoded ancestry (the stored
// (start, end) containment test, as the merging structural join plans run)
// against chasing parent pointers through the start index for the same
// ancestor check. Both read the two tags' index lists on every run.
func BenchmarkAblationEncoding(b *testing.B) {
	tp, _ := benchStores(b)
	s := tp.MCT
	b.Run("IntervalJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, _, err := engine.Exec(s, &engine.StructJoin{
				Anc:  &engine.ScanTag{Color: datagen.ColCustomer, Tag: "customer"},
				Desc: &engine.ScanTag{Color: datagen.ColCustomer, Tag: "orderline"},
				Axis: engine.AncestorDescendant, Merge: true,
			})
			if err != nil || len(rows) == 0 {
				b.Fatal(len(rows), err)
			}
		}
	})
	b.Run("PointerChase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			custs, _ := s.ScanTag(datagen.ColCustomer, "customer")
			lines, _ := s.ScanTag(datagen.ColCustomer, "orderline")
			isCust := make(map[int64]bool, len(custs))
			for _, c := range custs {
				isCust[c.Start] = true
			}
			matches := 0
			for _, l := range lines {
				cur := l
				for {
					p, ok, err := s.ParentOf(cur)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					if isCust[p.Start] {
						matches++
						break
					}
					cur = p
				}
			}
			if matches == 0 {
				b.Fatal("no matches")
			}
		}
	})
}
