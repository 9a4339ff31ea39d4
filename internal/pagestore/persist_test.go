package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

func buildPersistStore(t *testing.T) (*Store, FileID, []RecordID) {
	t.Helper()
	s := NewStore(0)
	f := s.CreateFile()
	var rids []RecordID
	for i := 0; i < 500; i++ {
		rid, err := s.AppendRecord(f, []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%40))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	return s, f, rids
}

func TestDumpLoadRoundTrip(t *testing.T) {
	s, f, rids := buildPersistStore(t)
	g := s.CreateFile() // second, empty file must survive too

	var buf bytes.Buffer
	if err := s.DumpPages(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := r.ReadRecord(rid)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want, _ := s.ReadRecord(rid)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if n, err := r.NumPages(g); err != nil || n != 0 {
		t.Fatalf("empty file: pages=%d err=%v", n, err)
	}
	// Appends continue in the right place.
	rid, err := r.AppendRecord(f, []byte("after-reload"))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != rids[len(rids)-1].Page && rid.Page != rids[len(rids)-1].Page+1 {
		t.Fatalf("append landed at %v, last loaded page %v", rid, rids[len(rids)-1])
	}
}

func TestLoadDetectsPageCorruption(t *testing.T) {
	s, _, _ := buildPersistStore(t)
	var buf bytes.Buffer
	if err := s.DumpPages(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside a page image (past the header + file table region).
	data[len(data)/2] ^= 0x40
	_, err := ReadStore(bytes.NewReader(data))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	if !strings.Contains(err.Error(), "page ") && !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("error does not locate the damage: %v", err)
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	s, _, _ := buildPersistStore(t)
	var buf bytes.Buffer
	if err := s.DumpPages(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) - PageSize, len(data) / 2, 7, 0} {
		if _, err := ReadStore(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

// seededHistory runs 4 000 seeded appends, overwrites, deletes and clones
// over two files and returns the last store. Some clones are siblings that
// append and delete and are then dropped, so the surviving lineage finds
// the shared tail's high-water mark moved; the last 1 500 operations mostly
// delete the oldest records, so whole pages die.
func seededHistory(t *testing.T, seed int64) (*Store, []FileID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewStore(0)
	files := []FileID{s.CreateFile(), s.CreateFile()}
	var live []RecordID
	size := map[RecordID]int{}
	bytesOf := func(n int) []byte {
		rec := make([]byte, n)
		rng.Read(rec)
		return rec
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 4000; op++ {
		appends := 10 // of 20
		if op >= 2500 {
			appends = 4
		}
		switch r := rng.Intn(20); {
		case r < appends || len(live) == 0:
			rec := bytesOf(rng.Intn(400))
			rid, err := s.AppendRecord(files[rng.Intn(2)], rec)
			must(err)
			live, size[rid] = append(live, rid), len(rec)
		case r < appends+4:
			rid := live[rng.Intn(len(live))]
			rec := bytesOf(rng.Intn(size[rid] + 1))
			must(s.OverwriteRecord(rid, rec))
			size[rid] = len(rec)
		case r < 18:
			i := rng.Intn(len(live))
			if op >= 2500 {
				i = rng.Intn(min(len(live), 40))
			}
			must(s.DeleteRecord(live[i]))
			live = append(live[:i], live[i+1:]...)
		case r < 19:
			s = s.Clone()
		default:
			sib := s.Clone()
			_, err := sib.AppendRecord(files[rng.Intn(2)], bytesOf(rng.Intn(400)))
			must(err)
			must(sib.DeleteRecord(live[rng.Intn(len(live))]))
		}
	}
	return s, files
}

// TestDumpFormatIsPinned: the dump of a seeded history is byte for byte the
// one the store wrote when every snapshot copied a page on its first write of
// it (length and trailer CRC taken from that store), and reloading it gives
// the same records and the same tombstones.
func TestDumpFormatIsPinned(t *testing.T) {
	s, files := seededHistory(t, 1)
	var buf bytes.Buffer
	if err := s.DumpPages(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	if crc := binary.LittleEndian.Uint32(dump[len(dump)-4:]); len(dump) != 336404 || crc != 0x2e3bf13c {
		t.Fatalf("dump is %d bytes with trailer CRC %#08x; want 336404 and 0x2e3bf13c", len(dump), crc)
	}
	r, err := ReadStore(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if got, want := scanned(t, r, f), scanned(t, s, f); got != want {
			t.Fatalf("file %d reloads as\n%s\nwant\n%s", f, got, want)
		}
	}
}

// scanned describes a file: its live records in scan order, then each
// page's slot count and tombstoned slots.
func scanned(t *testing.T, s *Store, f FileID) string {
	t.Helper()
	var b strings.Builder
	if err := s.Scan(f, func(rid RecordID, rec []byte) bool {
		fmt.Fprintf(&b, "%v %x\n", rid, rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	n, _ := s.NumPages(f)
	for p := 0; p < n; p++ {
		if err := s.ViewPage(PageID{File: f, Page: uint32(p)}, func(pg *Page) {
			fmt.Fprintf(&b, "page %d: %d slots, dead", p, pg.NumSlots())
			for i := 0; i < pg.NumSlots(); i++ {
				if _, err := pg.Record(uint16(i)); err != nil {
					fmt.Fprintf(&b, " %d", i)
				}
			}
			b.WriteByte('\n')
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestLoadRejectsMalformedPage: a page with a valid checksum whose slot
// directory overlaps its records, or whose live slot points outside them,
// fails the load with ErrBadPage naming the page, instead of loading and
// slicing out of bounds on the first read of the slot.
func TestLoadRejectsMalformedPage(t *testing.T) {
	s, _, _ := buildPersistStore(t)
	var buf bytes.Buffer
	if err := s.DumpPages(&buf); err != nil {
		t.Fatal(err)
	}
	const page1 = 28 + (12 + PageSize) + 12 // header, one file, page 0; page 1's data
	for name, damage := range map[string]func(pg []byte){
		"slot past free": func(pg []byte) { binary.LittleEndian.PutUint16(pg[PageSize-2:], 0xffff) },
		"slot in header": func(pg []byte) { binary.LittleEndian.PutUint16(pg[PageSize-4:], 2) },
		"slots overlap":  func(pg []byte) { binary.LittleEndian.PutUint16(pg[0:], 3000) },
	} {
		dump := bytes.Clone(buf.Bytes())
		pg := dump[page1 : page1+PageSize]
		damage(pg)
		binary.LittleEndian.PutUint32(dump[page1-4:], crc32.Checksum(pg, pageCastagnoli))
		binary.LittleEndian.PutUint32(dump[len(dump)-4:], crc32.Checksum(dump[:len(dump)-4], pageCastagnoli))
		_, err := ReadStore(bytes.NewReader(dump))
		if !errors.Is(err, ErrBadPage) || !strings.Contains(err.Error(), "page 0:1") {
			t.Errorf("%s: got %v, want ErrBadPage naming page 0:1", name, err)
		}
	}
}
