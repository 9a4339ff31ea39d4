package plan_test

import (
	"strconv"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// catalogStore builds the benchmark's catalog shape: red catalog → item* →
// name("Item k"); every third item is also a green child of featured and
// has a green votes(k mod 50) leaf.
func catalogStore(tb testing.TB, items int) *storage.Store {
	tb.Helper()
	db := core.NewDatabase("red", "green")
	must := func(n *core.Node, err error) *core.Node {
		if err != nil {
			tb.Fatal(err)
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
				tb.Fatal(err)
			}
			must(db.AddElementText(item, "votes", "green", strconv.Itoa(k%50)))
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

var navSink []storage.SNode

// BenchmarkNavCost calibrates costNavProbe (compile.go, DESIGN.md §11): the
// cost of one navigation — a tag-checked parent hop, a range of a 20 000-entry
// tag map over one node's children — in units of one scanned row, on the
// 20 000-item catalog. Each iteration does 1 000 operations spread over the
// store, so ns/op ÷ 1 000 is the per-operation figure.
func BenchmarkNavCost(b *testing.B) {
	const items, batch = 20000, 1000
	s := catalogStore(b, items)
	names, err := s.ScanTag("red", "name")
	if err != nil {
		b.Fatal(err)
	}
	itemNodes, err := s.ScanTag("red", "item")
	if err != nil {
		b.Fatal(err)
	}
	var nameRefs []uint64
	run := s.TagPostings("red", "name")
	run.Next(func(refs []uint64) int {
		nameRefs = append(nameRefs, refs...)
		return len(refs)
	})
	pick := func(i int) int { return (i * 7919) % items }

	b.Run("scan-row", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			navSink = navSink[:0]
			for i := 0; i < batch; i++ {
				sn, err := s.StructByRef(nameRefs[n%16*batch+i], "red")
				if err != nil {
					b.Fatal(err)
				}
				navSink = append(navSink, sn)
			}
		}
	})
	b.Run("parent-hop", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := 0; i < batch; i++ {
				var err error
				if navSink, err = s.AppendAncestors(navSink[:0], names[pick(n+i)], "item", true); err != nil || len(navSink) != 1 {
					b.Fatal(len(navSink), err)
				}
			}
		}
	})
	b.Run("child-seek", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := 0; i < batch; i++ {
				var err error
				if navSink, err = s.AppendWithin(navSink[:0], "name", itemNodes[pick(n+i)], true); err != nil || len(navSink) != 1 {
					b.Fatal(len(navSink), err)
				}
			}
		}
	})
}
