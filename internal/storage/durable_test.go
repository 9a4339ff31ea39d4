package storage_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pagestore"
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/wal"
)

// commit drains the shadow database's change log and applies it both to the
// WAL and to the live store — the same sequence the serving layer's durable
// commit hook performs.
func commit(t *testing.T, db *core.Database, d *storage.Durable, st *storage.Store) int {
	t.Helper()
	changes := db.DrainChanges()
	if len(changes) == 0 {
		return 0
	}
	if err := d.Append(changes); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyChanges(changes); err != nil {
		t.Fatal(err)
	}
	return len(changes)
}

func mustIso(t *testing.T, want *core.Database, st *storage.Store) {
	t.Helper()
	got, err := storage.Reconstruct(st)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := serialize.Isomorphic(want, got); !ok {
		t.Fatalf("recovered database differs: %s", why)
	}
}

func buildShadow(t *testing.T) *core.Database {
	t.Helper()
	db := core.NewDatabase("paper", "talk")
	root, err := db.AddElement(db.Document(), "library", "paper")
	if err != nil {
		t.Fatal(err)
	}
	for i, title := range []string{"mct", "views", "colors"} {
		item, err := db.AddElementText(root, "item", "paper", title)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.SetAttribute(item, "rank", strings.Repeat("i", i+1)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := db.AddColor(item, "talk"); err != nil {
				t.Fatal(err)
			}
			if err := db.Append(db.Document(), item, "talk"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestDurableOpenReplayCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")

	d, st, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLoaded || stats.SegmentsReplayed != 0 {
		t.Fatalf("fresh open reported recovery: %+v", stats)
	}
	db := buildShadow(t)
	n := commit(t, db, d, st)
	if n == 0 {
		t.Fatal("workload recorded no changes")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything comes back from the WAL alone.
	d2, st2, stats2, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CheckpointLoaded {
		t.Fatalf("no checkpoint was written, yet one loaded: %+v", stats2)
	}
	if stats2.RecordsReplayed != 1 || stats2.ChangesReplayed != n {
		t.Fatalf("replay stats = %+v, want 1 record / %d changes", stats2, n)
	}
	mustIso(t, db, st2)

	// Mutate in the second incarnation, close, reopen again: both sessions'
	// segments replay in order.
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "late"); err != nil {
		t.Fatal(err)
	}
	commit(t, db, d2, st2)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, stats3, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.SegmentsReplayed < 2 {
		t.Fatalf("expected at least two segments, got %+v", stats3)
	}
	mustIso(t, db, st3)
}

func TestDurableCheckpointCycle(t *testing.T) {
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
	const epoch = 2 // segment 1 + 1

	// Changes after the checkpoint land in the new segment.
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "post-ckpt"); err != nil {
		t.Fatal(err)
	}
	postChanges := commit(t, db, d, st)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Pre-checkpoint segments are garbage-collected.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if e.Name() == "wal-00000001.log" {
			t.Fatal("segment 1 survived checkpoint GC")
		}
	}

	_, st2, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CheckpointLoaded || stats.CheckpointEpoch != epoch {
		t.Fatalf("recovery did not use checkpoint %d: %+v", epoch, stats)
	}
	if stats.ChangesReplayed != postChanges {
		t.Fatalf("replayed %d changes, want only the %d post-checkpoint ones",
			stats.ChangesReplayed, postChanges)
	}
	mustIso(t, db, st2)
}

// lastSegment returns the path of the highest-numbered WAL segment with
// content.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			if info, err := e.Info(); err == nil && info.Size() > 0 && name > best {
				best = name
			}
		}
	}
	if best == "" {
		t.Fatal("no non-empty WAL segment found")
	}
	return filepath.Join(dir, best)
}

func TestDurableTornTailDropped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One committed batch, then a second whose tail we tear off.
	db := buildShadow(t)
	commit(t, db, d, st)
	shadowAtOne := buildShadow(t) // same content as db before the second batch
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "torn-away"); err != nil {
		t.Fatal(err)
	}
	commit(t, db, d, st)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, st2, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TornTail || stats.RecordsReplayed != 1 {
		t.Fatalf("want torn tail with 1 surviving record, got %+v", stats)
	}
	mustIso(t, shadowAtOne, st2)
}

func TestDurableDetectsWALCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "second"); err != nil {
		t.Fatal(err)
	}
	commit(t, db, d, st)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the FIRST record's payload: damage followed by a
	// valid record is corruption, not a torn tail.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = storage.OpenDurable(dir, storage.DurableOptions{})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("got %v, want wal.ErrCorrupt", err)
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) || !strings.HasPrefix(ce.Segment, "wal-") {
		t.Fatalf("corruption error does not name the segment: %v", err)
	}
}

func TestDurableDetectsCheckpointCorruption(t *testing.T) {
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
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "checkpoint-00000002.ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = storage.OpenDurable(dir, storage.DurableOptions{})
	if !errors.Is(err, pagestore.ErrChecksum) {
		t.Fatalf("got %v, want pagestore.ErrChecksum", err)
	}
	if !strings.Contains(err.Error(), "checkpoint-00000002.ckpt") {
		t.Fatalf("error does not name the checkpoint file: %v", err)
	}
}

func TestReconstructPreservesIdentity(t *testing.T) {
	db := buildShadow(t)
	st, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := storage.Reconstruct(st)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := serialize.Isomorphic(db, rec); !ok {
		t.Fatalf("reconstructed database differs: %s", why)
	}
	// Element identities survive: every element of the original exists in
	// the copy with the same tag and colors.
	for id := core.NodeID(1); id <= 16; id++ {
		orig := db.NodeByID(id)
		if orig == nil || orig.Kind() != core.KindElement {
			continue
		}
		got := rec.NodeByID(id)
		if got == nil || got.Kind() != core.KindElement || got.Name() != orig.Name() {
			t.Fatalf("element %d: original %v, reconstructed %v", id, orig, got)
		}
	}
}
