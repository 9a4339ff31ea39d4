package colorful

import (
	"errors"
	"fmt"
	"time"

	"colorfulxml/internal/core"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wal"
)

// This file is the durable lifecycle of the DB facade: Open recovers a
// database from a directory (checkpoint + write-ahead log), every mutation
// that commits through the DB wrappers is appended to the WAL before the
// mutator returns, and checkpoints — explicit, or taken by the commit that
// grows the WAL past a threshold — compact the log. See internal/storage's
// durable.go for the on-disk protocol.
//
// Durability covers exactly the store-visible state: the rooted colored
// trees with their tags, attributes and text. Detached fragments, comments
// and processing instructions have no store representation and do not
// survive a restart; code that needs them must re-create them after Open.

// ErrClosed is reported by operations on a closed durable database.
var ErrClosed = errors.New("colorful: database is closed")

// defaultCheckpointBytes is the WAL size at which a checkpoint is taken
// automatically.
const defaultCheckpointBytes = 4 << 20

// Options configures a durable database directory.
type Options struct {
	// NoSync disables the per-commit fsync. Commits then survive process
	// crashes (the OS still has the data) but not machine crashes.
	NoSync bool
	// CheckpointBytes is the WAL size that triggers an automatic
	// checkpoint (0: a 4 MiB default; negative: never automatically).
	CheckpointBytes int64
	// FS overrides the filesystem, for tests and fault injection.
	FS vfs.FS
	// ValidateInvariants enables the debug invariant sweep: the full
	// core.Database.Validate audit runs on the recovered state before Open
	// returns, and again after every incremental snapshot maintenance apply.
	// Expensive (it walks every node in every color); meant for tests and
	// harnesses, not production serving.
	ValidateInvariants bool
	// Retry overrides the transient-failure retry schedule for WAL flushes
	// and checkpoint installs. nil: vfs.DefaultRetryPolicy; a zero policy
	// (&vfs.RetryPolicy{}) disables retries.
	Retry *vfs.RetryPolicy
	// ProbeInterval is how often the degraded-mode recovery probe checks
	// whether the disk accepts writes again (0: 500ms).
	ProbeInterval time.Duration
	// ScrubInterval enables the online integrity scrubber: every interval it
	// re-verifies up to ScrubBudget bytes of at-rest checkpoint and WAL data
	// (0: scrubbing disabled).
	ScrubInterval time.Duration
	// ScrubBudget is the scrubber's per-increment I/O budget in bytes
	// (0: 1 MiB).
	ScrubBudget int64
}

// Open opens (creating if necessary) a durable database in dir, recovering
// any previously committed state and registering the given colors if they
// are not already present. Every mutation made through the DB wrappers is
// written ahead to a checksummed log and survives a crash; Close seals the
// log cleanly but an unclean exit loses nothing committed.
func Open(dir string, colors ...Color) (*DB, error) {
	return OpenOptions(dir, Options{}, colors...)
}

// OpenOptions is Open with explicit durability options.
func OpenOptions(dir string, opts Options, colors ...Color) (*DB, error) {
	policy := wal.SyncAlways
	if opts.NoSync {
		policy = wal.SyncNever
	}
	retry := vfs.DefaultRetryPolicy
	if opts.Retry != nil {
		retry = *opts.Retry
	}
	dur, st, stats, err := storage.OpenDurable(dir, storage.DurableOptions{
		FS: opts.FS, Sync: policy, Retry: retry,
	})
	if err != nil {
		return nil, err
	}
	cdb, err := storage.Reconstruct(st)
	if err != nil {
		dur.Close()
		return nil, fmt.Errorf("colorful: reconstructing recovered store: %w", err)
	}
	if opts.ValidateInvariants {
		if verr := cdb.Validate(); verr != nil {
			dur.Close()
			return nil, fmt.Errorf("colorful: recovered state violates core invariants: %w", verr)
		}
	}
	d := wrap(cdb)
	d.dur = dur
	d.durOpts = opts
	if d.durOpts.CheckpointBytes == 0 {
		d.durOpts.CheckpointBytes = defaultCheckpointBytes
	}
	if d.durOpts.ProbeInterval <= 0 {
		d.durOpts.ProbeInterval = 500 * time.Millisecond
	}
	if d.durOpts.ScrubBudget <= 0 {
		d.durOpts.ScrubBudget = 1 << 20
	}
	d.recovery = stats
	d.stopCh = make(chan struct{})
	obsHealthState.Set(int64(Healthy))

	// Publish the recovered state eagerly: the published snapshot is the
	// rollback basis of degraded-mode error handling, so it must exist
	// before the first durable commit (including the color registration
	// right below).
	if err := d.Refresh(); err != nil {
		dur.Close()
		return nil, fmt.Errorf("colorful: publishing recovered snapshot: %w", err)
	}

	// Register any missing colors; like every other mutation this commits
	// through the WAL (AddDatabaseColor is a no-op for existing colors, so
	// reopening with the same colors appends nothing).
	if err := d.commit(func() error {
		for _, c := range colors {
			d.Database.AddDatabaseColor(c)
		}
		return nil
	}); err != nil {
		d.Close()
		return nil, err
	}
	go d.probeLoop()
	if d.durOpts.ScrubInterval > 0 {
		go d.scrubLoop()
	}
	return d, nil
}

// Recovery returns what opening this database found and replayed (zero for
// databases not created by Open).
func (d *DB) Recovery() storage.RecoveryStats { return d.recovery }

// DurabilityStats is a point-in-time view of the durability machinery.
type DurabilityStats struct {
	// Durable reports whether the database was created by Open and is
	// still accepting durable commits.
	Durable bool
	// WALBytes is the size of the open WAL segment.
	WALBytes int64
	// Checkpoints counts checkpoints installed since Open.
	Checkpoints uint64
	// Recovery is what Open recovered.
	Recovery storage.RecoveryStats
}

// DurabilityStats returns the durability counters; Durable is false for
// in-memory databases and for closed, degraded or failed durable ones.
func (d *DB) DurabilityStats() DurabilityStats {
	s := DurabilityStats{
		Checkpoints: d.checkpoints.Load(),
		Recovery:    d.recovery,
	}
	d.mu.RLock()
	if d.dur != nil && d.durErr == nil {
		s.Durable = d.Health() == Healthy
		s.WALBytes = d.dur.LogBytes()
	}
	d.mu.RUnlock()
	return s
}

// Checkpoint synchronously captures the current state as a checkpoint and
// truncates the WAL. Commits made after Checkpoint returns land in a fresh
// log segment.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.durErr != nil {
		return d.durErr
	}
	if d.dur == nil {
		return errors.New("colorful: Checkpoint on a non-durable database")
	}
	if d.Health() == DegradedReadOnly {
		return d.readOnlyErr()
	}
	return d.checkpointLocked()
}

// Close drains and closes every open session (their in-flight queries
// finish; further session and statement executions report ErrSessionClosed),
// then seals the write-ahead log and releases the directory. The database
// remains readable in memory through the DB-level query methods, but
// further mutations report ErrClosed; a later Open recovers everything
// committed. Close is idempotent.
func (d *DB) Close() error {
	// Stop the probe and scrubber first: they take d.mu themselves.
	if d.stopCh != nil {
		d.stopOnce.Do(func() { close(d.stopCh) })
	}
	// Drain before taking d.mu: in-flight session queries may need the lock
	// themselves (constructor commits, evaluator reads).
	d.drainSessions()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dur == nil {
		return nil
	}
	err := d.dur.Close()
	d.dur = nil
	d.durErr = ErrClosed
	return err
}

// commit runs mutate as one durable commit scope under the writer lock.
func (d *DB) commit(mutate func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.commitLocked(mutate)
}

// commitLocked is the one commit scope every mutation of the DB facade runs
// in; the caller holds d.mu exclusively. beginCommit refuses before mutate
// runs; otherwise commitChanges runs whatever mutate returned — a failing
// mutation may still have changed the database, and the log must track
// what memory became — and mutate's own error wins over the commit's.
func (d *DB) commitLocked(mutate func() error) error {
	m, err := d.beginCommit()
	if err != nil {
		return err
	}
	err = mutate()
	if cerr := d.commitChanges(m); err == nil {
		err = cerr
	}
	return err
}

// beginCommit opens a durable commit scope, refusing — before anything
// mutates — when the database cannot commit: degraded (ErrReadOnly), failed
// (ErrFailed), or closed (ErrClosed).
func (d *DB) beginCommit() (core.ChangeMark, error) {
	if d.dur == nil {
		// In-memory databases (durErr nil) have no commit scope; closed
		// durable ones refuse with ErrClosed.
		return core.ChangeMark{}, d.durErr
	}
	switch Health(d.health.Load()) {
	case DegradedReadOnly:
		obsMutationsRejected.Inc()
		return core.ChangeMark{}, d.readOnlyErr()
	case Failed:
		obsMutationsRejected.Inc()
		return core.ChangeMark{}, d.durErr
	}
	return d.Database.Mark(), nil
}

// commitChanges makes the mutation performed since the mark durable: its
// change-log entries are appended as one WAL record (checksummed, and
// fsynced unless NoSync) before the mutator returns to its caller. Batches
// the log cannot carry — a ChangeComplex entry, or a mark invalidated by
// change-log overflow — force a synchronous full checkpoint instead, and so
// does a commit that takes the WAL past Options.CheckpointBytes, after its
// record is durable.
//
// A durability failure (after the storage layer's transient-error retries
// are exhausted) does not poison the database: the mutation is rolled back
// in memory and the database degrades to read-only serving (degradeLocked),
// recovering automatically when the disk heals. An automatic checkpoint that
// fails degrades too, but rolls nothing back: the commit that triggered it is
// in the WAL and stays acknowledged, and heal's Reseal is the retry. Only a
// rollback the change log cannot support moves the database to the terminal
// Failed state.
func (d *DB) commitChanges(m core.ChangeMark) error {
	if d.dur == nil {
		return d.durErr // nil for purely in-memory databases
	}
	if d.durErr != nil {
		return d.durErr
	}
	changes, ok := d.Database.ChangesSince(m)
	if !ok {
		// The mark was invalidated (change-log overflow, or a drain inside
		// the scope): the mutation cannot be separated for rollback, so a full
		// checkpoint is the only commit path and its failure is terminal.
		if err := d.checkpointLocked(); err != nil {
			return d.failLocked(fmt.Errorf("checkpoint after change-log overflow: %w", err))
		}
		return nil
	}
	if len(changes) == 0 {
		return nil
	}
	complex := false
	for _, ch := range changes {
		if ch.Kind == core.ChangeComplex {
			complex = true
			break
		}
	}
	if complex {
		if err := d.checkpointLocked(); err != nil {
			return d.degradeLocked(len(changes), err)
		}
		return nil
	}
	if err := d.dur.Append(changes); err != nil {
		return d.degradeLocked(len(changes), err)
	}
	if t := d.durOpts.CheckpointBytes; t > 0 && d.dur.LogBytes() >= t {
		if err := d.checkpointLocked(); err != nil {
			_ = d.degradeLocked(0, err) // this commit is durable and acknowledged: nothing to roll back
		}
	}
	return nil
}

// checkpointLocked rotates the WAL and synchronously installs a checkpoint
// of the current state. On success the change log is drained and the
// checkpoint image published as the current snapshot: the checkpoint
// supersedes the log, and the drain keeps the rollback-basis invariant (the
// published snapshot equals the state at the last drain, with no
// ChangeComplex entry left undrained). Caller holds d.mu exclusively.
func (d *DB) checkpointLocked() error {
	sw := obs.Start()
	epoch, err := d.dur.Rotate()
	if err != nil {
		return fmt.Errorf("colorful: checkpoint: %w", err)
	}
	st, err := storage.Load(d.Database, 0)
	if err != nil {
		return fmt.Errorf("colorful: checkpoint: %w", err)
	}
	if err := d.dur.InstallCheckpoint(epoch, st); err != nil {
		return fmt.Errorf("colorful: checkpoint: %w", err)
	}
	d.Database.DrainChanges()
	d.publish(st, d.Database.Generation())
	d.checkpoints.Add(1)
	obsCheckpoints.Inc()
	obsCheckpointNanos.Observe(sw.ElapsedNanos())
	return nil
}
