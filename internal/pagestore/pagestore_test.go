package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertAndRead(t *testing.T) {
	p := newPage()
	recs := [][]byte{[]byte("hello"), []byte("world"), []byte("")}
	var slots []uint16
	for _, r := range recs {
		s, err := p.insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Record(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d = %q, want %q", s, got, recs[i])
		}
	}
	if _, err := p.Record(99); err == nil {
		t.Fatal("bad slot should fail")
	}
}

func TestPageCapacity(t *testing.T) {
	p := newPage()
	big := make([]byte, PageSize)
	if _, err := p.insert(big); err == nil {
		t.Fatal("oversized record should fail")
	}
	// Fill the page with 100-byte records until full; then one more fails.
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.insert(rec); err != nil {
			break
		}
		n++
	}
	want := (PageSize - pageHeader) / (100 + slotSize)
	if n != want {
		t.Fatalf("fit %d records, want %d", n, want)
	}
}

func TestPageOverwriteAndDelete(t *testing.T) {
	p := newPage()
	s, _ := p.insert([]byte("abcdef"))
	if err := p.overwrite(s, []byte("xyzxyz")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Record(s)
	if string(got) != "xyzxyz" {
		t.Fatalf("got %q", got)
	}
	if err := p.overwrite(s, []byte("too long here")); err == nil {
		t.Fatal("growing overwrite should fail")
	}
	if err := p.overwrite(s, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Record(s)
	if string(got) != "ab" {
		t.Fatalf("shrunk record = %q", got)
	}
	p.delete(s)
	if _, err := p.Record(s); err == nil {
		t.Fatal("deleted record should not read")
	}
}

func TestStoreAppendAndScan(t *testing.T) {
	s := NewStore(0)
	f := s.CreateFile()
	var want []string
	for i := 0; i < 5000; i++ {
		rec := fmt.Sprintf("record-%05d", i)
		want = append(want, rec)
		if _, err := s.AppendRecord(f, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := s.Scan(f, func(_ RecordID, rec []byte) bool {
		got = append(got, string(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	n, _ := s.NumPages(f)
	if n < 2 {
		t.Fatalf("expected multiple pages, got %d", n)
	}
}

func TestStoreReadWriteDelete(t *testing.T) {
	s := NewStore(0)
	f := s.CreateFile()
	rid, err := s.AppendRecord(f, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRecord(rid)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if err := s.OverwriteRecord(rid, []byte("PAYLOAD")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ReadRecord(rid)
	if string(got) != "PAYLOAD" {
		t.Fatalf("after overwrite = %q", got)
	}
	if err := s.DeleteRecord(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRecord(rid); err == nil {
		t.Fatal("deleted record should not read")
	}
	if err := s.DeleteRecord(rid); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("deleting a tombstone: %v, want ErrNoSuchRecord", err)
	}
	if err := s.OverwriteRecord(rid, nil); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("overwriting a tombstone: %v, want ErrNoSuchRecord", err)
	}
	// Scan skips the tombstone.
	count := 0
	_ = s.Scan(f, func(RecordID, []byte) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan found %d records after delete", count)
	}
}

func TestStoreErrors(t *testing.T) {
	s := NewStore(0)
	if _, err := s.AppendRecord(99, []byte("x")); err == nil {
		t.Fatal("append to missing file should fail")
	}
	noView := func(*Page) { t.Fatal("viewed a page that is not there") }
	if err := s.ViewPage(PageID{File: 99}, noView); err == nil {
		t.Fatal("view of missing file should fail")
	}
	f := s.CreateFile()
	if err := s.ViewPage(PageID{File: f, Page: 0}, noView); err == nil {
		t.Fatal("view of out-of-range page should fail")
	}
	rid, err := s.AppendRecord(f, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ViewRecord(RecordID{PageID: rid.PageID, Slot: 9}, func([]byte) { t.Fatal("called for a missing slot") }); err == nil {
		t.Fatal("a missing slot should fail")
	}
	big := make([]byte, PageSize)
	if _, err := s.AppendRecord(f, big); err == nil {
		t.Fatal("oversized append should fail")
	}
	if _, err := s.NumPages(99); err == nil {
		t.Fatal("NumPages of missing file should fail")
	}
}

func TestQuickRandomRecordsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(0)
		file := s.CreateFile()
		type kv struct {
			rid RecordID
			val []byte
		}
		var all []kv
		for i := 0; i < 200; i++ {
			n := rng.Intn(300)
			val := make([]byte, n)
			rng.Read(val)
			rid, err := s.AppendRecord(file, val)
			if err != nil {
				return false
			}
			all = append(all, kv{rid, val})
		}
		for _, item := range all {
			got, err := s.ReadRecord(item.rid)
			if err != nil || !bytes.Equal(got, item.val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRecordStaysOffFullPage: a page with no room for one more slot
// entry used to report zero free bytes, which an empty record "fits" — its
// slot entry then overwrote the tail of the last record on the page.
func TestEmptyRecordStaysOffFullPage(t *testing.T) {
	s := NewStore(0)
	f := s.CreateFile()
	// 81 records of 96 bytes leave the page 88 bytes short of an 82nd; the
	// 84-byte record then leaves it exactly full: no byte and no slot left.
	var rids []RecordID
	var vals [][]byte
	add := func(n int) {
		val := bytes.Repeat([]byte{byte(len(vals) + 1)}, n)
		rid, err := s.AppendRecord(f, val)
		if err != nil {
			t.Fatal(err)
		}
		rids, vals = append(rids, rid), append(vals, val)
	}
	for i := 0; i < 81; i++ {
		add(96)
	}
	add(PageSize - pageHeader - 81*(96+slotSize) - slotSize)
	if rids[81].Page != 0 {
		t.Fatalf("set-up: the filler landed on page %d", rids[81].Page)
	}
	add(0)
	if rids[82].Page == 0 {
		t.Fatal("an empty record was put on a page with no room for its slot entry")
	}
	for i, rid := range rids {
		got, err := s.ReadRecord(rid)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("record %d (%d bytes) reads back as %d bytes, err %v", i, len(vals[i]), len(got), err)
		}
	}
}

// TestRecordReadsDoNotAllocate: the decode-and-drop readers (ViewRecord,
// ViewPage) allocate nothing.
func TestRecordReadsDoNotAllocate(t *testing.T) {
	s := NewStore(0)
	rid, err := s.AppendRecord(s.CreateFile(), []byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		if err := s.ViewRecord(rid, func(rec []byte) { n += len(rec) }); err != nil {
			t.Fatal(err)
		}
		if err := s.ViewPage(rid.PageID, func(p *Page) { n += p.NumSlots() }); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("a record view and a page view allocate %v times", a)
	}
}
