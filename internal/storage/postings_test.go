package storage

import (
	"runtime"
	"slices"
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
