package pagestore

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloneSnapshotIsolation: records written through a clone are invisible
// to the original and vice versa, including pages the original wrote in the
// generation the clone ended.
func TestCloneSnapshotIsolation(t *testing.T) {
	s := NewStore(0)
	f := s.CreateFile()
	var rids []RecordID
	for i := 0; i < 200; i++ {
		rid, err := s.AppendRecord(f, []byte(fmt.Sprintf("orig-%04d-payload-xxxxxxxxxxxxxxxx", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	cl := s.Clone()

	// Mutate the clone: overwrite, delete, append.
	for i := 0; i < 200; i += 2 {
		if err := cl.OverwriteRecord(rids[i], []byte(fmt.Sprintf("CLON-%04d-payload-xxxxxxxxxxxxxxxx", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 200; i += 4 {
		if err := cl.DeleteRecord(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.AppendRecord(f, []byte("clone-extra-record")); err != nil {
			t.Fatal(err)
		}
	}

	// Original still reads every original record.
	for i, rid := range rids {
		got, err := s.ReadRecord(rid)
		if err != nil {
			t.Fatalf("original record %d: %v", i, err)
		}
		want := fmt.Sprintf("orig-%04d-payload-xxxxxxxxxxxxxxxx", i)
		if string(got) != want {
			t.Fatalf("original record %d = %q, want %q", i, got, want)
		}
	}
	// Clone sees its own mutations.
	for i := 0; i < 200; i += 2 {
		got, err := cl.ReadRecord(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("CLON-%04d-payload-xxxxxxxxxxxxxxxx", i); string(got) != want {
			t.Fatalf("clone record %d = %q, want %q", i, got, want)
		}
	}
	for i := 1; i < 200; i += 4 {
		if _, err := cl.ReadRecord(rids[i]); err == nil {
			t.Fatalf("clone record %d should be deleted", i)
		}
	}
	// And mutating the original does not leak into the clone.
	if err := s.OverwriteRecord(rids[3], []byte("ORIG-mutated")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadRecord(rids[3])
	if err != nil {
		t.Fatal(err)
	}
	if want := "orig-0003-payload-xxxxxxxxxxxxxxxx"; string(got) != want {
		t.Fatalf("clone saw original's post-clone write: %q", got)
	}
}

// TestCloneConcurrentReaders: readers read the published store through
// ViewRecord, ViewPage and Scan, taking no lock, while the writer clones it
// again and again, writes each clone and publishes it — refreshHoldingMu's
// pattern (meaningful under -race).
func TestCloneConcurrentReaders(t *testing.T) {
	const n, gens = 300, 200
	s := NewStore(0)
	f := s.CreateFile()
	var rids []RecordID
	for i := 0; i < n; i++ {
		rid, err := s.AppendRecord(f, []byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var published atomic.Pointer[Store]
	published.Store(s)
	// Every record a reader sees is eight bytes: an original or a
	// generation's overwrite.
	valid := func(rec []byte) bool {
		return len(rec) == 8 && (string(rec[:4]) == "rec-" || rec[0] == 'g')
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				st := published.Load()
				rid := rids[k%n]
				var viewed, paged []byte
				if err := st.ViewRecord(rid, func(rec []byte) { viewed = append(viewed[:0], rec...) }); err != nil {
					t.Error(err)
					return
				}
				if err := st.ViewPage(rid.PageID, func(p *Page) {
					rec, _ := p.Record(rid.Slot)
					paged = append(paged[:0], rec...)
				}); err != nil {
					t.Error(err)
					return
				}
				if !valid(viewed) || string(viewed) != string(paged) {
					t.Errorf("record %d: ViewRecord %q, ViewPage %q", k%n, viewed, paged)
					return
				}
				live := 0
				if err := st.Scan(f, func(_ RecordID, rec []byte) bool {
					live++
					return valid(rec)
				}); err != nil || live != n {
					t.Errorf("scan of a published store: %d records, %v", live, err)
					return
				}
			}
		}(r)
	}
	for g := 1; g <= gens; g++ {
		next := published.Load().Clone()
		if err := next.OverwriteRecord(rids[g%n], []byte(fmt.Sprintf("g%07d", g))); err != nil {
			t.Fatal(err)
		}
		extra, err := next.AppendRecord(f, []byte("appended"))
		if err != nil {
			t.Fatal(err)
		}
		if err := next.DeleteRecord(extra); err != nil {
			t.Fatal(err)
		}
		published.Store(next)
	}
	close(stop)
	wg.Wait()
	for i, rid := range rids {
		got, err := s.ReadRecord(rid)
		if want := fmt.Sprintf("rec-%04d", i); err != nil || string(got) != want {
			t.Fatalf("the first store's record %d reads %q, %v after %d generations; want %q", i, got, err, gens, want)
		}
	}
}

// fillStore appends enough records to span the given number of pages, three
// records to a page.
func fillStore(t *testing.T, pages int) (*Store, []RecordID) {
	t.Helper()
	s := NewStore(0)
	f := s.CreateFile()
	rec := make([]byte, PageSize/4) // three records per page
	var rids []RecordID
	for n, _ := s.NumPages(f); n < pages; n, _ = s.NumPages(f) {
		copy(rec, fmt.Sprintf("rec-%06d", len(rids)))
		rid, err := s.AppendRecord(f, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	return s, rids
}

// TestCloneCostsThePagesWritten: a clone shares every page image, so it
// allocates the same few objects however many pages the store holds —
// whether nothing was written since the last clone, or one page was (that
// page's copy, the path to it in the image table, a fresh copied set).
func TestCloneCostsThePagesWritten(t *testing.T) {
	var clean, oneWritten []float64
	for _, pages := range []int{8, 800} {
		s, rids := fillStore(t, pages)
		s.Clone() // starts a generation in which no page is copied yet
		clean = append(clean, testing.AllocsPerRun(20, func() { s.Clone() }))
		oneWritten = append(oneWritten, testing.AllocsPerRun(20, func() {
			if err := s.OverwriteRecord(rids[0], []byte("written")); err != nil {
				t.Fatal(err)
			}
			s.Clone()
		}))
	}
	if clean[0] != clean[1] {
		t.Fatalf("a clean clone allocates %v objects with 8 pages pooled and %v with 800", clean[0], clean[1])
	}
	if oneWritten[0] != oneWritten[1] || oneWritten[0] > clean[0]+8 {
		t.Fatalf("write one page and clone: %v objects with 8 pages pooled, %v with 800 (clean clone: %v)",
			oneWritten[0], oneWritten[1], clean[0])
	}
}

// TestCloneSharesPooledFrames: original and clone share page images, and
// each keeps reading its own version of a page the other one overwrote,
// across two generations of clones, including pages written in the
// generation a clone ended.
func TestCloneSharesPooledFrames(t *testing.T) {
	s, rids := fillStore(t, 6)
	want := func(st *Store, name string, i int, text string) {
		t.Helper()
		got, err := st.ReadRecord(rids[i])
		if err != nil {
			t.Fatalf("%s record %d: %v", name, i, err)
		}
		if string(got[:len(text)]) != text {
			t.Fatalf("%s record %d = %q, want %q", name, i, got[:len(text)], text)
		}
	}
	c1 := s.Clone()
	if err := s.OverwriteRecord(rids[0], []byte("S-after-c1")); err != nil {
		t.Fatal(err)
	}
	if err := c1.OverwriteRecord(rids[1], []byte("C1-one")); err != nil {
		t.Fatal(err)
	}
	c2 := c1.Clone()
	if err := c1.OverwriteRecord(rids[1], []byte("C1-two")); err != nil {
		t.Fatal(err)
	}
	if err := c2.DeleteRecord(rids[2]); err != nil {
		t.Fatal(err)
	}
	want(s, "s", 0, "S-after-c1")
	want(s, "s", 1, "rec-000001")
	want(s, "s", 2, "rec-000002")
	want(c1, "c1", 0, "rec-000000")
	want(c1, "c1", 1, "C1-two")
	want(c1, "c1", 2, "rec-000002")
	want(c2, "c2", 0, "rec-000000")
	want(c2, "c2", 1, "C1-one")
	if _, err := c2.ReadRecord(rids[2]); err == nil {
		t.Fatal("c2 still reads the record it deleted")
	}
}

// TestDeadPageLeavesTheFile: the last delete on a page drops its image, so a
// file whose records come and go holds only the pages with live ones. The
// page appends fill stays, a clone taken before the deletes still reads every
// record, and a dropped page scans as empty without being read into memory:
// scanning a fresh clone allocates nothing.
func TestDeadPageLeavesTheFile(t *testing.T) {
	s, rids := fillStore(t, 12) // pages 0 to 10 full, page 11 the fill target
	f := rids[0].File
	frozen := s.Clone()
	for _, rid := range rids {
		if rid.Page != 1 {
			if err := s.DeleteRecord(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := uint64(0); p < 12; p++ {
		if _, ok := s.files[f].dir.Get(p); ok != (p == 1 || p == 11) {
			t.Fatalf("page %d has an image: %v; want only page 1 and the fill target", p, ok)
		}
	}
	for _, rid := range rids {
		if _, err := s.ReadRecord(rid); (rid.Page == 1) != (err == nil) {
			t.Fatalf("record %v reads with error %v", rid, err)
		}
		if _, err := frozen.ReadRecord(rid); err != nil {
			t.Fatalf("the clone lost record %v: %v", rid, err)
		}
	}
	clones := make([]*Store, 11) // AllocsPerRun's warm-up run and ten more
	for i := range clones {
		clones[i] = s.Clone()
	}
	n := 0
	if a := testing.AllocsPerRun(len(clones)-1, func() {
		if err := clones[0].Scan(f, func(RecordID, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		clones = clones[1:]
	}); a != 0 || n != 3*11 {
		t.Fatalf("scanning a fresh clone with 10 dropped pages: %v allocations, %d records; want 0 and page 1's three per scan", a, n)
	}
	rid, err := s.AppendRecord(f, []byte("next"))
	if err != nil || rid.Page != 11 {
		t.Fatalf("append after the deletes landed at %v, %v; want page 11", rid, err)
	}
	n = 0
	if err := s.Scan(f, func(RecordID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("scan found %d records, want page 1's three and the new one", n)
	}
}

// TestChurnReusesEmptiedPages: records that come and go, oldest first, with
// a Clone between rounds as commits take one, keep the file at the pages its
// live records need, the page the oldest are leaving, the page appends fill
// and the file's last: an append fills an emptied page before the file grows
// (without it, 300 rounds of 30 records grow the file by a page a round).
// Every frozen clone still reads the records it held, and two siblings of one
// clone that both fill the same emptied page each read only their own.
func TestChurnReusesEmptiedPages(t *testing.T) {
	const live, round, rounds = 300, 30, 300
	s := NewStore(0)
	f := s.CreateFile()
	rec := func(i int) []byte { return []byte(fmt.Sprintf("%0300d", i)) } // 26 a page
	var rids []RecordID
	for i := 0; i < live; i++ {
		rid, err := s.AppendRecord(f, rec(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	start, _ := s.NumPages(f)
	type held struct {
		s   *Store
		rid RecordID
		i   int
	}
	var frozen []held
	next := live
	for r := 0; r < rounds; r++ {
		for _, rid := range rids[:round] {
			if err := s.DeleteRecord(rid); err != nil {
				t.Fatal(err)
			}
		}
		rids = rids[round:]
		for j := 0; j < round; j++ {
			rid, err := s.AppendRecord(f, rec(next))
			if err != nil {
				t.Fatal(err)
			}
			rids, next = append(rids, rid), next+1
		}
		if r%50 == 0 {
			frozen = append(frozen, held{s, rids[len(rids)-1], next - 1})
		}
		s = s.Clone()
	}
	if n, _ := s.NumPages(f); n > start+3 {
		t.Fatalf("%d rounds of churn grew the file from %d to %d pages", rounds, start, n)
	}
	for _, h := range frozen {
		if got, err := h.s.ReadRecord(h.rid); err != nil || string(got) != string(rec(h.i)) {
			t.Fatalf("a frozen clone reads %v as %.12q, %v", h.rid, got, err)
		}
	}
	// Two siblings fill the fill page and then take the page emptied last,
	// each in an image of its own.
	for _, rid := range rids[:60] {
		if err := s.DeleteRecord(rid); err != nil {
			t.Fatal(err)
		}
	}
	emptied := s.files[f].emptied
	if len(emptied) == 0 {
		t.Fatal("deleting the 60 oldest records emptied no page")
	}
	a, b := s.Clone(), s.Clone()
	for i := 0; ; i++ {
		ra, errA := a.AppendRecord(f, rec(-i))
		rb, errB := b.AppendRecord(f, rec(i))
		if errA != nil || errB != nil || ra != rb || i > 26 {
			t.Fatalf("siblings appended at %v, %v (%v, %v)", ra, rb, errA, errB)
		}
		if ra.Page != emptied[len(emptied)-1] {
			continue
		}
		if got, _ := a.ReadRecord(ra); string(got) != string(rec(-i)) {
			t.Fatalf("sibling a reads %.12q", got)
		}
		if got, _ := b.ReadRecord(rb); string(got) != string(rec(i)) {
			t.Fatalf("sibling b reads %.12q", got)
		}
		break
	}
}

// TestAppendThenDeleteKeepsItsPage: a record appended in one generation and
// deleted in the next, over and over, as a tag added and deleted again is,
// keeps the file at the pages it had and the one the appends fill, and costs
// no page image a record: the page appends fill keeps its header when its
// records go, and once it is full of deleted records it starts afresh.
func TestAppendThenDeleteKeepsItsPage(t *testing.T) {
	const cycles = 2000
	s, _ := fillStore(t, 3)
	f := FileID(0)
	start, _ := s.NumPages(f)
	rec := make([]byte, 100) // 78 a page
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		rid, err := s.AppendRecord(f, rec)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Clone()
		if err := s.DeleteRecord(rid); err != nil {
			t.Fatal(err)
		}
		s = s.Clone()
	}
	runtime.ReadMemStats(&after)
	if n, _ := s.NumPages(f); n > start+1 {
		t.Errorf("%d appends, each deleted, grew the file from %d to %d pages", cycles, start, n)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per > PageSize/2 {
		t.Errorf("an append and its delete allocate %d B (two clones included), want at most %d", per, PageSize/2)
	}
}

// TestConcurrentReadersOfSharedTail: a clone appends into the tail page it
// shares with a frozen store, in place, while four readers view and scan the
// frozen store (meaningful under -race: the appends write only past the
// frozen store's records and slot entries, where it does not read). A
// sibling clone of the frozen store then finds the tail's high-water mark
// moved and copies the page on its first append, and each lineage reads only
// its own records.
func TestConcurrentReadersOfSharedTail(t *testing.T) {
	const n, appends = 100, 500
	s := NewStore(0)
	f := s.CreateFile()
	var rids []RecordID
	for i := 0; i < n; i++ {
		rid, err := s.AppendRecord(f, []byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	cl := s.Clone()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				rid, want := rids[k%n], fmt.Sprintf("rec-%04d", k%n)
				var viewed string
				if err := s.ViewRecord(rid, func(rec []byte) { viewed = string(rec) }); err != nil || viewed != want {
					t.Errorf("ViewRecord(%v) = %q, %v; want %q", rid, viewed, err, want)
					return
				}
				slots := 0
				if err := s.ViewPage(rid.PageID, func(p *Page) { slots = int(p.nslots) }); err != nil || slots != n {
					t.Errorf("ViewPage: %d slots, %v; want %d", slots, err, n)
					return
				}
				live := 0
				if err := s.Scan(f, func(rid RecordID, rec []byte) bool {
					live++
					return string(rec) == fmt.Sprintf("rec-%04d", rid.Slot)
				}); err != nil || live != n {
					t.Errorf("scan of the frozen store: %d records, %v; want %d", live, err, n)
					return
				}
			}
		}(r)
	}
	copied := obsPagesCopied.Value()
	var added []RecordID
	for i := 0; i < appends; i++ {
		rid, err := cl.AppendRecord(f, []byte(fmt.Sprintf("c-%04d", i)))
		if err != nil {
			t.Error(err)
			break
		}
		added = append(added, rid)
		if i%5 == 0 {
			if err := cl.DeleteRecord(rid); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if d := obsPagesCopied.Value() - copied; d != 0 || added[appends-1].Page != 0 {
		t.Fatalf("the clone's %d appends copied %d pages and ended on page %d; want 0 and the shared page 0", appends, d, added[appends-1].Page)
	}
	sib := s.Clone()
	rid, err := sib.AppendRecord(f, []byte("sibling"))
	if err != nil {
		t.Fatal(err)
	}
	if d := obsPagesCopied.Value() - copied; d != 1 || rid != added[0] {
		t.Fatalf("the sibling's first append landed at %v and copied %d pages; want %v and 1", rid, d, added[0])
	}
	read := func(st *Store, rid RecordID) string {
		rec, err := st.ReadRecord(rid)
		if err != nil {
			return "<" + err.Error() + ">"
		}
		return string(rec)
	}
	if got := read(sib, rid); got != "sibling" {
		t.Fatalf("the sibling reads its record as %q", got)
	}
	if got := read(s, rid); !strings.HasPrefix(got, "<") {
		t.Fatalf("the frozen store reads a slot past its own: %q", got)
	}
	for i, rid := range added {
		want := fmt.Sprintf("c-%04d", i)
		if got := read(cl, rid); (i%5 == 0) != strings.HasPrefix(got, "<") || i%5 != 0 && got != want {
			t.Fatalf("the clone reads its record %d as %q", i, got)
		}
	}
	for i, rid := range rids {
		if got, want := read(sib, rid)+read(cl, rid), strings.Repeat(fmt.Sprintf("rec-%04d", i), 2); got != want {
			t.Fatalf("original record %d reads %q in the sibling and the clone", i, got)
		}
	}
}

// benchStore is a store of 2 000 small records (about four pages).
func benchStore(b *testing.B) (*Store, FileID, []RecordID) {
	s := NewStore(0)
	f := s.CreateFile()
	rids := make([]RecordID, 2000)
	for i := range rids {
		var err error
		if rids[i], err = s.AppendRecord(f, []byte(fmt.Sprintf("record-%04d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return s, f, rids
}

// BenchmarkAppendAfterClone: a commit that appends one record to the store
// it cloned from the last commit's: in place in the shared tail page.
func BenchmarkAppendAfterClone(b *testing.B) {
	s, f, _ := benchStore(b)
	rec := []byte("record-xxxx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = s.Clone()
		if _, err := s.AppendRecord(f, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteAfterClone: a commit that deletes one record of a published
// store: a copy of the page's header and tombstone bitmap.
func BenchmarkDeleteAfterClone(b *testing.B) {
	s, _, rids := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Clone().DeleteRecord(rids[i%len(rids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverwriteAfterClone: a commit that overwrites one record of a
// published store: a copy of the page's header with the record in it.
func BenchmarkOverwriteAfterClone(b *testing.B) {
	s, _, rids := benchStore(b)
	rec := []byte("RECORD-xxxx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Clone().OverwriteRecord(rids[i%len(rids)], rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPatched: ViewRecord of a record in the page image, and of the
// oldest of MaxPatches records the page's header holds, the longest walk of
// its list.
func BenchmarkReadPatched(b *testing.B) {
	s, _, rids := benchStore(b)
	s = s.Clone()
	for _, rid := range rids[:MaxPatches] { // all on page 0
		if err := s.OverwriteRecord(rid, []byte("RECORD-xxxx")); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		rid  RecordID
	}{{"image", rids[MaxPatches]}, {"patched", rids[0]}} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				if err := s.ViewRecord(bc.rid, func(rec []byte) { n += len(rec) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
