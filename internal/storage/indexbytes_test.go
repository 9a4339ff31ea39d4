package storage

import (
	"runtime"
	"testing"

	"colorfulxml/internal/btree"
	"colorfulxml/internal/fixtures"
)

// startBytes is the start index's share of IndexBytes: every color's map.
func (s *Store) startBytes() int64 {
	var total int64
	for _, t := range s.trees {
		total += t.start.Bytes()
	}
	return total
}

// TestIndexBytesCoversAllIndexes pins IndexBytes to the sum of all four
// indexes; the start index in particular was once omitted from the Table 1
// accounting.
func TestIndexBytesCoversAllIndexes(t *testing.T) {
	m := fixtures.NewMovieDB()
	s, err := Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := []struct {
		name  string
		bytes int64
	}{
		{"tag", s.tagIdx.Bytes()},
		{"content", s.contentIdx.Bytes()},
		{"attr", s.attrIdx.Bytes()},
		{"start", s.startBytes()},
	}
	var sum int64
	for _, p := range parts {
		sum += p.bytes
	}
	if got := s.IndexBytes(); got != sum {
		t.Fatalf("IndexBytes() = %d, want sum of all four indexes = %d", got, sum)
	}
	// Populated indexes must contribute; the start index covers every
	// structural node, so it can never be empty on a loaded store.
	for _, p := range parts {
		if p.name == "attr" {
			continue // the movie fixture carries no attributes
		}
		if p.bytes <= 0 {
			t.Errorf("%s index contributes %d bytes, want > 0", p.name, p.bytes)
		}
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIndexBytesMatchLiveHeap: what Bytes reports for the start and the
// content index is what dropping the index frees, within 5 %, on the
// benchmark's 20 000-item catalog; and the start index, one map of integers
// per color, stays within 1.5 MB there.
func TestIndexBytesMatchLiveHeap(t *testing.T) {
	c := fixtures.NewCatalog(20000)
	s, err := Load(c.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.startBytes(); got > 1.5e6 {
		t.Errorf("start index holds %d bytes for %d structural nodes, want at most 1.5 MB", got, s.Counts().StructNodes)
	}
	for _, idx := range []struct {
		name  string
		bytes func() int64
		drop  func()
	}{
		{"start", s.startBytes, func() {
			for i := range s.trees {
				s.trees[i].start = &btree.Map[int64, uint64]{}
			}
		}},
		{"content", func() int64 { return s.contentIdx.Bytes() }, func() { s.contentIdx = btree.New() }},
	} {
		reported := idx.bytes()
		before := liveHeap()
		idx.drop()
		freed := before - liveHeap()
		if off := float64(reported-freed) / float64(freed); off < -0.05 || off > 0.05 {
			t.Errorf("%s index: Bytes() = %d, dropping it freed %d (%+.1f %%)", idx.name, reported, freed, 100*off)
		} else {
			t.Logf("%s index: Bytes() = %d, dropping it freed %d (%+.1f %%)", idx.name, reported, freed, 100*off)
		}
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(s)
}
