package vfs

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestFaultFSScheduledFault(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(OS, 1)
	// Op 0 is the Create; op 1 the first Write.
	f.Schedule(1, Fault{Err: ErrDiskFull})
	file, err := f.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("hello")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("want ErrDiskFull, got %v", err)
	}
	// One-shot: the next write succeeds.
	if _, err := file.Write([]byte("hello")); err != nil {
		t.Fatalf("fault was not one-shot: %v", err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", f.Injected())
	}
}

func TestFaultFSPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(OS, 1)
	f.Schedule(1, Fault{Err: ErrIO, PartialFrac: 0.5})
	file, err := f.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := file.Write([]byte("0123456789"))
	if !errors.Is(err, ErrIO) {
		t.Fatalf("want ErrIO, got %v", err)
	}
	if n != 5 {
		t.Fatalf("partial write delivered %d bytes, want 5", n)
	}
	file.Close()
	data, err := OS.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("file holds %q, want the 5-byte prefix", data)
	}
}

func TestFaultFSStandingAndClear(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(OS, 1)
	f.SetStanding(ErrIO)
	if _, err := f.Create(filepath.Join(dir, "a")); !errors.Is(err, ErrIO) {
		t.Fatalf("standing fault not applied: %v", err)
	}
	if err := f.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "y")); !errors.Is(err, ErrIO) {
		t.Fatalf("standing fault skipped rename: %v", err)
	}
	// A one-shot fault armed for an operation that has not happened yet goes
	// with the standing one: after Clear nothing is left to fire late.
	f.Schedule(f.Ops(), Fault{Err: ErrDiskFull})
	f.Clear()
	file, err := f.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("cleared FS still failing: %v", err)
	}
	file.Close()
	if f.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", f.Injected())
	}
}

func TestFaultFSRateSeededDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		dir := t.TempDir()
		f := NewFaultFS(OS, 77)
		f.SetRate(0.3, ErrIO)
		var fails int64
		for i := 0; i < 100; i++ {
			file, err := f.Create(filepath.Join(dir, "f"))
			if err != nil {
				fails++
				continue
			}
			if _, err := file.Write([]byte("x")); err != nil {
				fails++
			}
			file.Close()
		}
		return fails, f.Injected()
	}
	f1, i1 := run()
	f2, i2 := run()
	if f1 != f2 || i1 != i2 {
		t.Fatalf("seeded rate mode not deterministic: (%d,%d) vs (%d,%d)", f1, i1, f2, i2)
	}
	if i1 == 0 {
		t.Fatal("rate mode injected nothing")
	}
}

func TestFaultFSSyncDelay(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(OS, 1)
	var slept time.Duration
	f.SetSleep(func(d time.Duration) { slept += d })
	f.SetSyncDelay(50 * time.Millisecond)
	file, err := f.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	file.Close()
	if slept != 50*time.Millisecond {
		t.Fatalf("sync slept %v, want 50ms", slept)
	}
	if f.Injected() != 1 {
		t.Fatalf("latency event not counted: Injected = %d", f.Injected())
	}
}
