package storage_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/vfs"
)

// TestCheckpointCrashAtEveryStep cuts one Checkpoint at every crash point
// vfs.CrashFS can place in it: right after each of its charged operations
// (each create, write, rename and remove), so each next one never runs, and
// one byte into, halfway through and one byte short of each write, which
// tears it. Every cut directory must open
// and recover exactly the committed state. The checkpoint runs from a healthy open segment and from one whose
// last append failed, the heal's case; they are the same call.
func TestCheckpointCrashAtEveryStep(t *testing.T) {
	for _, sticky := range []bool{false, true} {
		t.Run(map[bool]string{false: "healthy", true: "sticky"}[sticky], func(t *testing.T) {
			base := t.TempDir()
			steps := &stepFS{crash: vfs.NewCrashFS(vfs.OS, -1)}
			start, want := checkpointScenario(t, filepath.Join(base, "dry"), steps, sticky)
			// Crash points: the cost reached after each operation, and the
			// torn points inside each write.
			var points []int64
			for _, s := range steps.ops {
				if s.start < start {
					continue // opening and committing
				}
				if s.write && s.end-s.start > 1 {
					points = append(points, s.start+1, s.start+(s.end-s.start)/2, s.end-1)
				}
				points = append(points, s.end)
			}
			slices.Sort(points)
			points = slices.Compact(points)
			if len(points) < 10 {
				t.Fatalf("a checkpoint offers only %d crash points: %+v", len(points), steps.ops)
			}
			for _, budget := range points {
				dir := filepath.Join(base, fmt.Sprintf("cut-%d", budget))
				crash := vfs.NewCrashFS(vfs.OS, budget)
				if got, _ := checkpointScenario(t, dir, crash, sticky); got != start {
					t.Fatalf("budget %d: the set-up cost %d, the measured run %d", budget, got, start)
				}
				_, st, stats, err := storage.OpenDurable(dir, storage.DurableOptions{})
				if err != nil {
					t.Fatalf("crash at cost %d of %d..%d: recovery failed: %v", budget, start, points[len(points)-1], err)
				}
				got, err := storage.Reconstruct(st)
				if err != nil {
					t.Fatal(err)
				}
				if ok, why := serialize.Isomorphic(want, got); !ok {
					t.Fatalf("crash at cost %d of %d..%d: recovered %+v differs from the committed state: %s",
						budget, start, points[len(points)-1], stats, why)
				}
			}
			t.Logf("%d crash points across %d charged operations", len(points), len(steps.ops))
		})
	}
}

// costFS is a filesystem that knows what its charged operations have cost.
type costFS interface {
	vfs.FS
	BytesWritten() int64
}

// checkpointScenario opens dir over fs, commits the shadow store, and, when
// sticky, fails the next append halfway through its write, which leaves the
// writer sticky-failed and a torn record at the segment's tail. It then checkpoints the
// committed state and closes, ignoring their errors (fs may crash), and
// returns the cost spent before the checkpoint and the committed state.
func checkpointScenario(t *testing.T, dir string, fs costFS, sticky bool) (int64, *core.Database) {
	t.Helper()
	ffs := vfs.NewFaultFS(fs, 1)
	d, st, _, err := storage.OpenDurable(dir, storage.DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	db := buildShadow(t)
	commit(t, db, d, st)
	if sticky {
		if _, err := db.AddElementText(db.NodeByID(1), "item", "paper", "lost"); err != nil {
			t.Fatal(err)
		}
		lost := db.DrainChanges()
		ffs.Schedule(ffs.Ops(), vfs.Fault{Err: vfs.Permanent(vfs.ErrIO), PartialFrac: 0.5})
		if err := d.Append(lost); err == nil {
			t.Fatal("append succeeded through an injected fault")
		}
		db = buildShadow(t) // the committed state, without the lost record
	}
	start := fs.BytesWritten()
	_ = d.Checkpoint(st)
	_ = d.Close()
	return start, db
}

// step is one charged operation of a measured run: the cost before and after
// it, and whether it was a file write.
type step struct {
	start, end int64
	write      bool
}

// stepFS wraps a counting CrashFS and records the cost span of each charged
// operation.
type stepFS struct {
	crash *vfs.CrashFS
	ops   []step
}

func (s *stepFS) BytesWritten() int64 { return s.crash.BytesWritten() }

func (s *stepFS) charged(write bool, op func()) {
	start := s.crash.BytesWritten()
	op()
	s.ops = append(s.ops, step{start: start, end: s.crash.BytesWritten(), write: write})
}

func (s *stepFS) Create(name string) (f vfs.File, err error) {
	s.charged(false, func() { f, err = s.crash.Create(name) })
	if err != nil {
		return nil, err
	}
	return &stepFile{File: f, fs: s}, nil
}

func (s *stepFS) Rename(oldname, newname string) (err error) {
	s.charged(false, func() { err = s.crash.Rename(oldname, newname) })
	return err
}

func (s *stepFS) Remove(name string) (err error) {
	s.charged(false, func() { err = s.crash.Remove(name) })
	return err
}

func (s *stepFS) ReadFile(name string) ([]byte, error) { return s.crash.ReadFile(name) }
func (s *stepFS) ReadDir(dir string) ([]string, error) { return s.crash.ReadDir(dir) }
func (s *stepFS) MkdirAll(dir string) error            { return s.crash.MkdirAll(dir) }
func (s *stepFS) SyncDir(dir string) error             { return s.crash.SyncDir(dir) }
func (s *stepFS) Stat(name string) (int64, error)      { return s.crash.Stat(name) }

type stepFile struct {
	vfs.File
	fs *stepFS
}

func (f *stepFile) Write(p []byte) (n int, err error) {
	f.fs.charged(true, func() { n, err = f.File.Write(p) })
	return n, err
}
