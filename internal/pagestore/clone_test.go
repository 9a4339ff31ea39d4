package pagestore

import (
	"fmt"
	"sync"
	"testing"
)

// TestCloneSnapshotIsolation: records written through a clone are invisible
// to the original and vice versa, including pages that were resident in the
// original's buffer pool at clone time.
func TestCloneSnapshotIsolation(t *testing.T) {
	s := NewStore(4) // tiny pool: some pages live on "disk", some in frames
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

// TestCloneConcurrentReaders: frozen original serves readers while the
// clone absorbs writes (meaningful under -race).
func TestCloneConcurrentReaders(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile()
	var rids []RecordID
	for i := 0; i < 300; i++ {
		rid, err := s.AppendRecord(f, []byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	cl := s.Clone()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				i := n % len(rids)
				got, err := s.ReadRecord(rids[i])
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("rec-%04d", i); string(got) != want {
					t.Errorf("read %q, want %q", got, want)
					return
				}
			}
		}()
	}
	for i := range rids {
		if err := cl.OverwriteRecord(rids[i], []byte("mutated!")); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

// fillStore appends enough records to span the given number of pages, all of
// which stay pooled (the default pool is far larger).
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

// TestCloneCostsThePagesWritten: only frames written since the last clone
// are handed to the disk layer. A clone allocates the same few objects
// however many pages the store pools — whether every frame is clean, or one
// page was written (that page's copy, its chunk of the image table, a fresh
// dirty set).
func TestCloneCostsThePagesWritten(t *testing.T) {
	var clean, oneWritten []float64
	for _, pages := range []int{8, 800} {
		s, rids := fillStore(t, pages)
		s.Clone() // hands every written page over, once
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

// TestCloneSharesPooledFrames: with every page resident in the original's
// pool, original and clone each keep reading their own version of a page the
// other one overwrote, across two generations of clones.
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

// TestDeadPageLeavesTheFile: the last delete on a page drops its image and
// frame, so a file whose records come and go holds only the pages with live
// ones. The page appends fill stays, a clone taken before the deletes still
// reads every record, and the dropped page scans as empty.
func TestDeadPageLeavesTheFile(t *testing.T) {
	s, rids := fillStore(t, 3) // pages 0 and 1 full, page 2 the fill target
	f := rids[0].File
	frozen := s.Clone()
	for _, rid := range rids {
		if rid.Page != 1 {
			if err := s.DeleteRecord(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := s.files[f].images.Get(0); ok {
		t.Fatal("dead page 0 kept its image")
	}
	if _, ok := s.pool[PageID{File: f, Page: 0}]; ok {
		t.Fatal("dead page 0 kept its frame")
	}
	if _, ok := s.pool[PageID{File: f, Page: 2}]; !ok {
		t.Fatal("the fill target was dropped")
	}
	for _, rid := range rids {
		if _, err := s.ReadRecord(rid); (rid.Page == 1) != (err == nil) {
			t.Fatalf("record %v reads with error %v", rid, err)
		}
		if _, err := frozen.ReadRecord(rid); err != nil {
			t.Fatalf("the clone lost record %v: %v", rid, err)
		}
	}
	rid, err := s.AppendRecord(f, []byte("next"))
	if err != nil || rid.Page != 2 {
		t.Fatalf("append after the deletes landed at %v, %v; want page 2", rid, err)
	}
	n := 0
	if err := s.Scan(f, func(RecordID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("scan found %d records, want page 1's three and the new one", n)
	}
}
