package vfs

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultFS wraps an FS with deterministic, seeded fault injection for the
// chaos harness: unlike CrashFS — which models a single unrecoverable power
// loss — FaultFS models a disk that misbehaves while the process keeps
// running. Faults are injected into durability operations (Create, Rename,
// Remove, SyncDir, file Write and Sync), each of which consumes one index in
// a global operation sequence:
//
//   - one-shot faults scheduled at explicit operation indices (Schedule) —
//     exactly reproducible, for single-writer tests;
//   - a seeded failure rate (SetRate) — statistically reproducible, for
//     concurrent workloads where operation interleaving varies;
//   - a standing fault (SetStanding) failing every operation until Clear —
//     an outage window, transient or permanent per the error's taxonomy;
//   - injected fsync latency (SetSyncDelay) — a slow disk, not a broken one.
//
// A faulted Write may deliver a prefix of its bytes before failing (a torn
// in-flight write), driving the WAL's partial-write continuation. Reads are
// never faulted: read-side damage is modeled by corrupting bytes on the base
// filesystem directly (see the scrubber tests).
type FaultFS struct {
	base FS

	mu       sync.Mutex
	rng      *rand.Rand
	rate     float64
	rateErr  error
	sched    map[int64]Fault
	standing error
	delay    time.Duration
	ops      int64
	injected int64
	sleep    func(time.Duration)
}

// Fault is one scheduled fault. Err fails the operation (wrapped with the
// operation's name); PartialFrac in (0, 1) additionally delivers that
// fraction of a Write's bytes before the failure. A zero Err with a positive
// Delay injects latency only (meaningful for Sync operations).
type Fault struct {
	Err         error
	PartialFrac float64
	Delay       time.Duration
}

// NewFaultFS wraps base with a seeded fault injector. With no schedule, rate
// or standing fault configured it is transparent.
func NewFaultFS(base FS, seed int64) *FaultFS {
	return &FaultFS{
		base:  base,
		rng:   rand.New(rand.NewSource(seed)),
		sched: map[int64]Fault{},
		sleep: time.Sleep,
	}
}

// Permanent wraps err so IsTransient reports false: a standing fault built
// from a transient sentinel becomes a hard outage the retry layer gives up
// on immediately.
func Permanent(err error) error {
	return fmt.Errorf("%w: %w", errPermanent, err)
}

// SetRate makes each durability operation fail with probability rate,
// reporting err (ErrIO when nil). The seeded stream makes a single-threaded
// run exactly reproducible and a concurrent one statistically so.
func (f *FaultFS) SetRate(rate float64, err error) {
	if err == nil {
		err = ErrIO
	}
	f.mu.Lock()
	f.rate, f.rateErr = rate, err
	f.mu.Unlock()
}

// Schedule arms a one-shot fault at the given durability-operation index
// (the current index is Ops; operations are numbered from 0).
func (f *FaultFS) Schedule(opIndex int64, fault Fault) {
	f.mu.Lock()
	f.sched[opIndex] = fault
	f.mu.Unlock()
}

// SetStanding makes every durability operation fail with err until Clear;
// use Permanent(err) for an outage retries should not ride out.
func (f *FaultFS) SetStanding(err error) {
	f.mu.Lock()
	f.standing = err
	f.mu.Unlock()
}

// Clear removes the standing fault and every one-shot fault not yet reached:
// the disk works again (a failure rate, if set, stays set).
func (f *FaultFS) Clear() {
	f.mu.Lock()
	f.standing = nil
	clear(f.sched)
	f.mu.Unlock()
}

// SetSyncDelay injects latency into every file Sync — a slow disk.
func (f *FaultFS) SetSyncDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// SetSleep replaces the latency injector's sleep (tests inject a no-op).
func (f *FaultFS) SetSleep(fn func(time.Duration)) {
	f.mu.Lock()
	f.sleep = fn
	f.mu.Unlock()
}

// Ops returns how many durability operations have been issued.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Injected returns how many faults (errors and latency events) have been
// injected so far — the chaos harness's event count.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// next consumes one durability-operation index and decides its fate.
func (f *FaultFS) next(op string) (fault Fault, inject bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := f.ops
	f.ops++
	if fl, ok := f.sched[idx]; ok {
		delete(f.sched, idx)
		f.injected++
		return fl, true
	}
	if f.standing != nil {
		f.injected++
		return Fault{Err: f.standing}, true
	}
	if f.rate > 0 && f.rng.Float64() < f.rate {
		f.injected++
		return Fault{Err: f.rateErr}, true
	}
	if op == "sync" && f.delay > 0 {
		f.injected++
		return Fault{Delay: f.delay}, true
	}
	return Fault{}, false
}

func (f *FaultFS) opErr(op string) error {
	fault, inject := f.next(op)
	if !inject {
		return nil
	}
	if fault.Delay > 0 {
		f.mu.Lock()
		sleep := f.sleep
		f.mu.Unlock()
		sleep(fault.Delay)
	}
	if fault.Err == nil {
		return nil
	}
	return fmt.Errorf("vfs: fault injected in %s: %w", op, fault.Err)
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.opErr("create"); err != nil {
		return nil, err
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.opErr("rename"); err != nil {
		return err
	}
	return f.base.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.opErr("remove"); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.base.ReadDir(dir) }

func (f *FaultFS) MkdirAll(dir string) error { return f.base.MkdirAll(dir) }

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.opErr("syncdir"); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

func (f *FaultFS) Stat(name string) (int64, error) { return f.base.Stat(name) }

type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fault, inject := ff.fs.next("write")
	if !inject {
		return ff.f.Write(p)
	}
	if fault.Err == nil {
		return ff.f.Write(p)
	}
	err := fmt.Errorf("vfs: fault injected in write: %w", fault.Err)
	if fault.PartialFrac > 0 && fault.PartialFrac < 1 {
		n := int(float64(len(p)) * fault.PartialFrac)
		if n > 0 {
			wrote, werr := ff.f.Write(p[:n])
			if werr != nil {
				return wrote, werr
			}
			return wrote, err
		}
	}
	return 0, err
}

func (ff *faultFile) Sync() error {
	fault, inject := ff.fs.next("sync")
	if !inject {
		return ff.f.Sync()
	}
	if fault.Delay > 0 {
		ff.fs.mu.Lock()
		sleep := ff.fs.sleep
		ff.fs.mu.Unlock()
		sleep(fault.Delay)
	}
	if fault.Err != nil {
		return fmt.Errorf("vfs: fault injected in sync: %w", fault.Err)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
