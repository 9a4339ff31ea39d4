package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/vfs"
)

func TestChangeBatchRoundTrip(t *testing.T) {
	batch := []core.Change{
		{Kind: core.ChangeInsertLeaf, Elem: 7, Parent: 3, Color: "red", Tag: "item",
			Content: "hello", Attrs: [][2]string{{"id", "i7"}, {"lang", "en"}}},
		{Kind: core.ChangeContent, Elem: 7, Content: "world"},
		{Kind: core.ChangeAddDatabaseColor, Color: "green"},
		{Kind: core.ChangeDeleteSubtree, Elem: 9, Color: "red"},
	}
	enc := EncodeChanges(batch)
	dec, err := DecodeChanges(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(batch) {
		t.Fatalf("got %d changes, want %d", len(dec), len(batch))
	}
	for i := range batch {
		a, b := batch[i], dec[i]
		if a.Kind != b.Kind || a.Elem != b.Elem || a.Parent != b.Parent ||
			a.Color != b.Color || a.Tag != b.Tag || a.Content != b.Content ||
			len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("change %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestDecodeChangesRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge count
		{0x01},             // count 1, no change
		{0x01, 0x00, 0x05}, // truncated mid-change
		append(EncodeChanges([]core.Change{{Kind: core.ChangeContent}}), 0xAA), // trailing byte
	} {
		if _, err := DecodeChanges(bad); err == nil {
			t.Errorf("DecodeChanges(%x) accepted garbage", bad)
		}
	}
}

func writeSegment(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	f, err := vfs.OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, filepath.Base(path), 1, SyncAlways)
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-1.log")
	writeSegment(t, path, []byte("alpha"), []byte("beta"), []byte{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReadSegment(data, "wal-1.log", true)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if res.Torn || len(res.Records) != 3 {
		t.Fatalf("got torn=%v records=%d", res.Torn, len(res.Records))
	}
	if string(res.Records[0].Payload) != "alpha" || res.Records[1].Seq != 2 {
		t.Fatalf("bad decode: %+v", res.Records)
	}
}

func TestSegmentTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-1.log")
	writeSegment(t, path, []byte("alpha"), []byte("beta-is-longer"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-int(recHeaderSize)-10; cut-- {
		res, err := ReadSegment(data[:cut], "wal-1.log", true)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !res.Torn || len(res.Records) != 1 {
			t.Fatalf("cut %d: torn=%v records=%d, want torn with 1 record", cut, res.Torn, len(res.Records))
		}
	}
	// The same truncation in a non-final segment is corruption.
	if _, err := ReadSegment(data[:len(data)-3], "wal-1.log", false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-final truncation: got %v, want ErrCorrupt", err)
	}
}

func TestSegmentMidLogCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-1.log")
	writeSegment(t, path, []byte("alpha"), []byte("beta"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: the second record still
	// decodes, so this must be corruption even in the final segment.
	data[recHeaderSize] ^= 0xFF
	_, err = ReadSegment(data, "wal-1.log", true)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 || ce.Segment != "wal-1.log" {
		t.Fatalf("corruption not located: %v", err)
	}
}

// syncCounter counts the fsyncs of the segment file it wraps.
type syncCounter struct {
	vfs.File
	syncs int
}

func (c *syncCounter) Sync() error {
	c.syncs++
	return c.File.Sync()
}

// TestWriterContract pins what a Writer promises its caller: sequence numbers
// run on from startSeq, Size is the file's length, and the sync policy alone
// decides the fsyncs — one per Append under SyncAlways, none under SyncNever.
func TestWriterContract(t *testing.T) {
	for _, tc := range []struct {
		policy    SyncPolicy
		perAppend int
	}{{SyncAlways, 1}, {SyncNever, 0}} {
		path := filepath.Join(t.TempDir(), "wal-1.log")
		f, err := vfs.OS.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		file := &syncCounter{File: f}
		const startSeq, n = 40, 16
		w := NewWriter(file, "wal-1.log", startSeq, tc.policy)
		for i := 0; i < n; i++ {
			seq, err := w.Append(make([]byte, i))
			if err != nil {
				t.Fatal(err)
			}
			if seq != startSeq+uint64(i) {
				t.Fatalf("policy %d: append %d got seq %d, want %d", tc.policy, i, seq, startSeq+i)
			}
			if file.syncs != (i+1)*tc.perAppend {
				t.Fatalf("policy %d: %d fsyncs after %d appends, want %d", tc.policy, file.syncs, i+1, (i+1)*tc.perAppend)
			}
		}
		if w.NextSeq() != startSeq+n {
			t.Fatalf("policy %d: NextSeq %d, want %d", tc.policy, w.NextSeq(), startSeq+n)
		}
		size := w.Size()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != size {
			t.Fatalf("policy %d: Size %d, file holds %d bytes", tc.policy, size, len(data))
		}
		res, err := ReadSegment(data, "wal-1.log", true)
		if err != nil || res.Torn || len(res.Records) != n {
			t.Fatalf("policy %d: read back %v (err %v)", tc.policy, res, err)
		}
		for i, r := range res.Records {
			if r.Seq != startSeq+uint64(i) || len(r.Payload) != i {
				t.Fatalf("policy %d: record %d is seq %d with %d bytes", tc.policy, i, r.Seq, len(r.Payload))
			}
		}
	}
}

func TestCrashFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	// Measure a full run first.
	count := vfs.NewCrashFS(vfs.OS, -1)
	writeVia := func(fs vfs.FS, name string) error {
		f, err := fs.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := NewWriter(f, name, 1, SyncAlways)
		for i := 0; i < 4; i++ {
			if _, err := w.Append([]byte("payload-payload-payload")); err != nil {
				return err
			}
		}
		return w.Close()
	}
	if err := writeVia(count, "full.log"); err != nil {
		t.Fatal(err)
	}
	total := count.BytesWritten()
	// Crash two thirds through: the writer must observe the crash, and the
	// segment must read back as a valid prefix with (at most) a torn tail.
	crash := vfs.NewCrashFS(vfs.OS, total*2/3)
	if err := writeVia(crash, "torn.log"); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("got %v, want ErrCrashed", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "torn.log"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReadSegment(data, "torn.log", true)
	if err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if len(res.Records) >= 4 {
		t.Fatalf("crash lost nothing? records=%d", len(res.Records))
	}
	for _, r := range res.Records {
		if string(r.Payload) != "payload-payload-payload" {
			t.Fatalf("surviving record damaged: %q", r.Payload)
		}
	}
}
