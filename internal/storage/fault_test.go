package storage_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"colorfulxml/internal/storage"
	"colorfulxml/internal/vfs"
)

// quickRetry is a retry schedule that never really sleeps.
func quickRetry() vfs.RetryPolicy {
	return vfs.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Budget:      time.Second,
		Seed:        3,
		Sleep:       func(time.Duration) {},
	}
}

// TestTornTailSurvivesSecondRecovery is the regression test for a latent
// recovery bug: a torn WAL tail used to survive the first recovery on disk,
// and once that incarnation rotated to a fresh segment the torn one was no
// longer final — so the SECOND recovery rejected it as hard corruption.
// Recovery now truncates the torn tail in place.
func TestTornTailSurvivesSecondRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	shadowAtOne := buildShadow(t)
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

	// First recovery drops the tail; the segment it opens makes the torn one
	// non-final.
	d2, _, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TornTail {
		t.Fatalf("tear not detected: %+v", stats)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second recovery must still succeed, with the same surviving state.
	_, st3, stats3, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatalf("second recovery after torn tail: %v", err)
	}
	if stats3.TornTail {
		t.Fatalf("tail reported torn again after truncation: %+v", stats3)
	}
	mustIso(t, shadowAtOne, st3)
}

func TestDurableRetriesTransientAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: ffs, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)

	// Fail the next durability operation (the commit's WAL write) once.
	ffs.Schedule(ffs.Ops(), vfs.Fault{Err: vfs.ErrIO})
	commit(t, db, d, st)
	if ffs.Injected() != 1 {
		t.Fatalf("fault not consumed: injected=%d", ffs.Injected())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustIso(t, db, st2)
}

func TestDurableRetriesCheckpointInstall(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: ffs, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	// Fail the checkpoint's tmp-file create once; the install must retry
	// and land the checkpoint.
	ffs.Schedule(ffs.Ops(), vfs.Fault{Err: vfs.ErrDiskFull})
	if err := d.Checkpoint(st); err != nil {
		t.Fatalf("install through transient fault: %v", err)
	}
	const epoch = 2 // segment 1 + 1
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CheckpointLoaded || stats.CheckpointEpoch != epoch {
		t.Fatalf("checkpoint not installed: %+v", stats)
	}
	mustIso(t, db, st2)
}

// createFault fails, while armed, every Create of a file whose name ends in
// suffix.
type createFault struct {
	vfs.FS
	suffix string
	armed  bool
}

func (f *createFault) Create(name string) (vfs.File, error) {
	if f.armed && strings.HasSuffix(name, f.suffix) {
		return nil, vfs.Permanent(vfs.ErrIO)
	}
	return f.FS.Create(name)
}

// TestCheckpointFailureKinds: a Checkpoint that fails while its image is
// written leaves the open segment writable; one that fails while MANIFEST is
// replaced, or after, leaves no segment. Each way the commits survive.
func TestCheckpointFailureKinds(t *testing.T) {
	for _, tc := range []struct {
		suffix    string
		noSegment bool
		epoch     uint64
	}{
		{".ckpt.tmp", false, 1},
		{"MANIFEST.tmp", true, 1},
		{".log", true, 2},
	} {
		t.Run(tc.suffix, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			fs := &createFault{FS: vfs.OS, suffix: tc.suffix}
			d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			db := buildShadow(t)
			commit(t, db, d, st)
			fs.armed = true
			err = d.Checkpoint(st)
			if err == nil || errors.Is(err, storage.ErrNoSegment) != tc.noSegment {
				t.Fatalf("Checkpoint with a failing %s Create: %v", tc.suffix, err)
			}
			if !tc.noSegment {
				if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "after"); err != nil {
					t.Fatal(err)
				}
				commit(t, db, d, st)
			}
			_ = d.Close() // an abandoned segment reports itself as failed
			_, st2, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.CheckpointEpoch != tc.epoch {
				t.Fatalf("recovered epoch %d, want %d", stats.CheckpointEpoch, tc.epoch)
			}
			mustIso(t, db, st2)
		})
	}
}

// TestCheckpointAfterOutage: the heal is an ordinary Checkpoint. After a
// commit fails for good the writer is poisoned; a checkpoint of the committed
// state moves the log past it, and commits flow again.
func TestCheckpointAfterOutage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: ffs, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)

	// A hard outage: the in-flight commit fails without retries and the
	// writer is poisoned. The in-memory mutation is NOT applied to st —
	// exactly the rollback contract the serving layer maintains.
	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "lost"); err != nil {
		t.Fatal(err)
	}
	lost := db.DrainChanges()
	if err := d.Append(lost); err == nil {
		t.Fatal("append succeeded through a standing outage")
	}
	if err := d.Append(lost); err == nil {
		t.Fatal("poisoned writer accepted another append")
	}

	// Disk comes back: checkpoint the committed state.
	ffs.Clear()
	if err := d.Checkpoint(st); err != nil {
		t.Fatalf("checkpoint after the outage: %v", err)
	}

	// Commits flow again and land in the new log. The mutator works on the
	// rolled-back committed state, as the serving layer does after a failed
	// commit.
	db2, err := storage.Reconstruct(st)
	if err != nil {
		t.Fatal(err)
	}
	db2.DrainChanges() // discard reconstruction's own change records
	if _, err := db2.AddElementText(db2.NodeByID(1), "item", "paper", "after-heal"); err != nil {
		t.Fatal(err)
	}
	post := db2.DrainChanges()
	if err := d.Append(post); err != nil {
		t.Fatalf("append after the checkpoint: %v", err)
	}
	if err := st.ApplyChanges(post); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	_, st2, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after the checkpoint: %v", err)
	}
	if !stats.CheckpointLoaded {
		t.Fatalf("the checkpoint was not installed: %+v", stats)
	}
	mustIso(t, db2, st2)
}

func TestProbeDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	d, _, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ProbeDisk(); err != nil {
		t.Fatalf("probe on a healthy disk: %v", err)
	}
	ffs.SetStanding(vfs.ErrIO)
	if err := d.ProbeDisk(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("probe on a broken disk: %v", err)
	}
	ffs.Clear()
	if err := d.ProbeDisk(); err != nil {
		t.Fatalf("probe after outage cleared: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "probe.tmp")); !os.IsNotExist(err) {
		t.Fatal("probe scratch file left behind")
	}
}
