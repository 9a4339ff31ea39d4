package storage_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colorfulxml/internal/storage"
)

// scrubFixture builds a directory holding a live checkpoint and one sealed
// WAL segment: commit, checkpoint (epoch 2), commit again, then Close and
// reopen (sealing segment 2 with content, opening 3).
func scrubFixture(t *testing.T) (*storage.Durable, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	if err := d.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "sealed"); err != nil {
		t.Fatal(err)
	}
	commit(t, db, d, st)
	return reopenDurable(t, d, dir), dir
}

// reopenDurable closes d and opens its directory again, which seals the
// segment d had open; the reopened store is closed at the test's end.
func reopenDurable(t *testing.T, d *storage.Durable, dir string) *storage.Durable {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestScrubCleanPass(t *testing.T) {
	d, _ := scrubFixture(t)
	res, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PassComplete {
		t.Fatalf("unbounded scrub did not complete a pass: %+v", res)
	}
	if res.Files != 2 || res.Bytes == 0 {
		t.Fatalf("scrubbed %d files / %d bytes, want 2 files (checkpoint + sealed segment)", res.Files, res.Bytes)
	}
	if len(res.Corruptions) != 0 {
		t.Fatalf("clean directory reported corruption: %+v", res.Corruptions)
	}
}

func TestScrubBudgetAndCursor(t *testing.T) {
	d, _ := scrubFixture(t)
	// A 1-byte budget admits exactly one file per increment.
	first, err := d.ScrubOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Files != 1 || first.PassComplete {
		t.Fatalf("budgeted increment = %+v, want 1 file and an unfinished pass", first)
	}
	second, err := d.ScrubOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if second.Files != 1 || !second.PassComplete {
		t.Fatalf("second increment = %+v, want the final file completing the pass", second)
	}
	// The pass restarts from the top.
	third, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if third.Files != 2 || !third.PassComplete {
		t.Fatalf("restarted pass = %+v, want both files again", third)
	}
}

func TestScrubDetectsSegmentCorruption(t *testing.T) {
	d, dir := scrubFixture(t)
	// Flip a payload byte in the sealed segment (bit-rot at rest).
	seg := filepath.Join(dir, "wal-00000002.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corruptions) != 1 {
		t.Fatalf("want 1 corruption, got %+v", res.Corruptions)
	}
	c := res.Corruptions[0]
	if c.File != "wal-00000002.log" || c.Offset < 0 {
		t.Fatalf("corruption not located: %+v", c)
	}
}

func TestScrubDetectsCheckpointCorruption(t *testing.T) {
	d, dir := scrubFixture(t)
	ckpt := filepath.Join(dir, "checkpoint-00000002.ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corruptions) != 1 {
		t.Fatalf("want 1 corruption, got %+v", res.Corruptions)
	}
	if c := res.Corruptions[0]; !strings.HasPrefix(c.File, "checkpoint-") {
		t.Fatalf("corruption names %q, want the checkpoint", c.File)
	}
}

// TestScrubHealedByCheckpoint verifies the heal path: after a fresh
// checkpoint supersedes a corrupt sealed segment, the next pass is clean.
func TestScrubHealedByCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	d = reopenDurable(t, d, dir) // seal segment 1 with content
	seg := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corruptions) == 0 {
		t.Fatal("corruption not detected before heal")
	}
	// Heal: checkpoint the in-memory committed state; GC sweeps the
	// damaged segment and the next pass has nothing to complain about.
	if err := d.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	res2, err := d.ScrubOnce(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Corruptions) != 0 {
		t.Fatalf("corruption survived the healing checkpoint: %+v", res2.Corruptions)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatal("damaged segment survived GC")
	}
}
