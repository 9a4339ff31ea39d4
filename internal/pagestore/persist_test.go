package pagestore

import (
	"bytes"
	"errors"
	"fmt"
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
