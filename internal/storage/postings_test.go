package storage

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
)

// insertAfterClone is the tag index's share of an insert after a Clone: a
// clone of the color's per-tag maps, then one posting in the middle of the
// 20 000 postings of the catalog's item tag.
func insertAfterClone(t *colorTree, start int64) {
	tags := t.tags.clone()
	tags.write("item").m.Put(start, 1)
}

// TestTagInsertAfterCloneCopiesLittle: after a Clone, a posting put in the
// middle of a tag of 20 000 path-copies a few nodes of that tag's map: what it
// allocates does not grow with the tag (a copy of its 20 000 refs is 160 kB).
func TestTagInsertAfterCloneCopiesLittle(t *testing.T) {
	s, err := Load(fixtures.NewCatalog(20000).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.tree("red")
	if n := tr.tags.get("item").Len(); n != 20000 {
		t.Fatalf("%d items", n)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		insertAfterClone(tr, 16*(20000+int64(i)*97)+1)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 5000 {
		t.Fatalf("an insert into a 20 000-posting tag after a Clone allocates %d B, want at most 5 kB", per)
	}
}

// contentInsertAfterClone is the content index's share of an insert after a
// Clone: a clone of the color's per-tag content maps, then one posting put
// under text, which is new to the tag or held by several nodes already, so
// no record is read.
func contentInsertAfterClone(t *colorTree, tag, text string, start int64) {
	texts := t.texts.clone()
	if err := putText(texts.write(tag), text, start, 1, func(uint64) (int64, error) {
		panic("a record was read")
	}); err != nil {
		panic(err)
	}
}

// TestContentInsertAfterCloneCopiesLittle: after a Clone, a posting put in
// the catalog's content maps path-copies a few nodes: a new name among the
// 20 000 texts of name (at most 5 kB), and a vote into the run of the 133
// items voted "7" (6 kB; measured 4.7 kB, 5.1 kB under the race detector). A
// copy of either is tens of kilobytes.
func TestContentInsertAfterCloneCopiesLittle(t *testing.T) {
	s, err := Load(fixtures.NewCatalog(20000).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	red, green := s.tree("red"), s.tree("green")
	if n := red.texts.get("name").Len(); n != 20000 {
		t.Fatalf("%d names", n)
	}
	if _, _, r := lookup(green.texts.maps["votes"], "7"); r == nil || r.m.Len() != 133 {
		t.Fatalf("the run of votes \"7\" is %v", r)
	}
	const runs = 50
	for _, tc := range []struct {
		name  string
		tree  *colorTree
		tag   string
		text  func(i int) string
		limit uint64
	}{
		{"name", red, "name", func(i int) string { return "Item " + strconv.Itoa(10000+i) + "a" }, 5000},
		// The run's header and a leaf of the texts' map are copied too.
		{"vote", green, "votes", func(int) string { return "7" }, 6000},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			contentInsertAfterClone(tc.tree, tc.tag, tc.text(i), 16*(20000+int64(i)*97)+1)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		if per > tc.limit {
			t.Errorf("%s: a content posting put after a Clone allocates %d B, want at most %d", tc.name, per, tc.limit)
		}
		t.Logf("%s: %d B a posting put after a Clone", tc.name, per)
	}
}

// TestContentBytesPerText pins the content index's layout on the 20 000-item
// catalog: a text one node holds (each name) costs its entry in the tag's
// map, its ref inline, and a text many hold (a vote, 133 nodes a text) a
// start and a ref a node in its run; neither counts the text, which is the
// data's. Measured on linux/amd64: 51.0 and 19.8 bytes, against 75 and 62
// with the text and the start in each key.
func TestContentBytesPerText(t *testing.T) {
	s, err := Load(fixtures.NewCatalog(20000).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		color, tag string
		postings   int
		limit      float64 // bytes a posting
	}{
		{"red", "name", 20000, 51 * 1.05},
		{"green", "votes", 6667, 19.8 * 1.05},
	} {
		e := s.tree(core.Color(tc.color)).texts.maps[tc.tag]
		one := postingMaps[string]{maps: map[string]*posting[string]{tc.tag: e}}
		if n := e.m.Len() + e.runs.Len(); n != 20000 && n != 50 {
			t.Fatalf("%s: %d texts", tc.tag, n)
		}
		if per := float64(one.bytes()) / float64(tc.postings); per > tc.limit {
			t.Errorf("%s: %.1f bytes a posting, want at most %.1f", tc.tag, per, tc.limit)
		}
	}
}

// TestAppendWithinReadsOnlyItsAnswer: a containment probe ranges the tag's
// map over the node's interval and reads the records of what it finds there
// and nothing else: with every other structural record of the color gone
// from its page, it still answers.
func TestAppendWithinReadsOnlyItsAnswer(t *testing.T) {
	s, err := Load(fixtures.NewCatalog(300).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	items, err := s.ScanTag("red", "item")
	if err != nil {
		t.Fatal(err)
	}
	item := items[150]
	for _, childOnly := range []bool{false, true} {
		want, err := s.AppendWithin(nil, "name", item, childOnly)
		if err != nil || len(want) != 1 {
			t.Fatalf("child=%v: %v, %v", childOnly, want, err)
		}
		bare := s.Clone()
		tr := bare.tree("red")
		tr.start.Ascend(func(start int64, ref uint64) bool {
			if start != want[0].Start {
				if err := bare.pages.DeleteRecord(unpackRID(ref)); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		if got, err := bare.AppendWithin(nil, "name", item, childOnly); err != nil || len(got) != 1 || got[0] != want[0] {
			t.Fatalf("child=%v: with only the answer's record left, AppendWithin = %v, %v; want %v", childOnly, got, err, want)
		}
	}
}

// BenchmarkTagInsertAfterClone: insertAfterClone, the pin of
// TestTagInsertAfterCloneCopiesLittle.
func BenchmarkTagInsertAfterClone(b *testing.B) {
	s, err := Load(fixtures.NewCatalog(20000).DB, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := s.tree("red")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertAfterClone(tr, 16*int64(i%40000)+1)
	}
}

// BenchmarkContentInsertAfterClone: contentInsertAfterClone, the pin of
// TestContentInsertAfterCloneCopiesLittle, for a vote into a run of 133.
func BenchmarkContentInsertAfterClone(b *testing.B) {
	s, err := Load(fixtures.NewCatalog(20000).DB, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := s.tree("green")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contentInsertAfterClone(tr, "votes", "7", 16*int64(i%40000)+1)
	}
}

// drain reads a run's refs to the end.
func drain(p Postings) []uint64 {
	var refs []uint64
	for {
		n := len(refs)
		p.Next(func(r []uint64) int {
			refs = append(refs, r...)
			return len(r)
		})
		if len(refs) == n {
			return refs
		}
	}
}

// TestCountedRunIsReadOnce: a short content run counted on a store is read
// from the count, not sought in the index again; a long one, or one counted
// on another store, is sought as ContentPostings seeks it; every way finds
// the same refs.
func TestCountedRunIsReadOnce(t *testing.T) {
	s, err := Load(fixtures.NewCatalog(1500).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		color        string
		tag, value   string
		n            int
		readFromHere bool
	}{
		{"red", "name", "Item 7", 1, true},
		{"red", "name", "no such item", 0, true},
		{"green", "votes", "7", 10, false}, // longer than a count keeps
	} {
		c := core.Color(tc.color)
		want := drain(s.ContentPostings(c, tc.tag, tc.value))
		r := s.CountRun(c, tc.tag, tc.value)
		if r.N != tc.n || len(want) != tc.n {
			t.Fatalf("%s = %q: counted %d, scanned %d, want %d", tc.tag, tc.value, r.N, len(want), tc.n)
		}
		p := s.RunPostings(&r, c, tc.tag, tc.value)
		if sought := p.text != nil; sought == tc.readFromHere {
			t.Errorf("%s = %q: sought the index again: %v, want %v", tc.tag, tc.value, sought, !tc.readFromHere)
		}
		if got := drain(p); !slices.Equal(got, want) {
			t.Errorf("%s = %q: read after the count %v, want %v", tc.tag, tc.value, got, want)
		}
		clone := s.Clone()
		if p := clone.RunPostings(&r, c, tc.tag, tc.value); p.few != nil || !slices.Equal(drain(p), want) {
			t.Errorf("%s = %q: another store read the count", tc.tag, tc.value)
		}
		if p := s.RunPostings(&r, c, tc.tag, tc.value+"x"); p.few != nil {
			t.Errorf("%s = %q: a lookup of another value read the count", tc.tag, tc.value)
		}
	}
}
