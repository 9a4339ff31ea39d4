package colorful

import (
	"errors"
	"fmt"
	"time"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
)

// This file is the fault-tolerance state machine of a durable DB. A
// database is Healthy until a durable commit (or the automatic checkpoint a
// commit takes) fails after the storage layer's transient-failure retries are
// exhausted. Instead of poisoning the database forever, the failed mutation
// is rolled back — the in-memory state returns to exactly the last committed
// state; a failed automatic checkpoint rolls back nothing — and the DB
// degrades to read-only serving: queries, sessions and prepared
// statements keep working against the committed state, mutations report
// ErrReadOnly, and a background probe watches the disk. When writes succeed
// again, a checkpoint of the committed state (checkpointLocked) puts the
// failed segment below the epoch and the database returns to Healthy. Failed
// is the terminal state of a rollback that cannot run; reads may then
// reflect an unacknowledged mutation and mutations report ErrFailed.
//
// The rollback leans on one invariant, maintained by serve.go: the published
// snapshot always equals the core state at the last change-log drain (the
// rollback's own drain publishes too). The committed state is therefore
// always "published snapshot + committed prefix of the undrained log", and
// the failed mutation is exactly the log's suffix past the commit's mark.

// Health is a durable database's serving state.
type Health int32

const (
	// Healthy: mutations and queries both served.
	Healthy Health = iota
	// DegradedReadOnly: a durability failure was rolled back; queries are
	// served from the committed state, mutations report ErrReadOnly, and a
	// background probe tries to heal the disk.
	DegradedReadOnly
	// Failed: an unrecoverable inconsistency (terminal). Queries still run
	// but may observe an unacknowledged mutation; mutations report
	// ErrFailed.
	Failed
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case DegradedReadOnly:
		return "degraded-readonly"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

// ErrDegraded is wrapped by every error reported because the database is in
// degraded read-only mode. Not retryable: the condition clears only when
// the background probe heals the disk (watch Health()).
var ErrDegraded = errors.New("colorful: database is degraded after a durability failure")

// ErrReadOnly is reported by mutations while the database is degraded; it
// wraps ErrDegraded. Not retryable.
var ErrReadOnly = fmt.Errorf("mutations are disabled: %w", ErrDegraded)

// ErrFailed is reported by mutations after an unrecoverable durability
// failure. Terminal; not retryable.
var ErrFailed = errors.New("colorful: database has failed")

// Health returns the database's serving state (always Healthy for
// in-memory databases).
func (d *DB) Health() Health { return Health(d.health.Load()) }

// transitionHealth sets the serving state and its gauge. Every caller holds
// d.mu exclusively, so no compare-and-swap is needed; the atomic store is for
// the lock-free Health readers. The callers take the three edges of DESIGN
// §13: degradeLocked and failLocked leave Healthy (they run inside a commit,
// which beginCommit admits only while Healthy, or in a checkpoint taken while
// Healthy), healLocked leaves DegradedReadOnly.
func (d *DB) transitionHealth(to Health) {
	d.health.Store(int32(to))
	obsHealthState.Set(int64(to))
}

// HealthInfo is a point-in-time view of the health machinery, also served
// on /debug/health.
type HealthInfo struct {
	// State is the serving state; Cause is the failure that left Healthy
	// (empty when healthy).
	State Health
	Cause string
	// Degrades and Heals count Healthy->DegradedReadOnly transitions and
	// recoveries since Open.
	Degrades uint64
	Heals    uint64
	// Scrub activity (zero when scrubbing is disabled).
	ScrubPasses      uint64
	ScrubFiles       uint64
	ScrubBytes       uint64
	ScrubCorruptions uint64
	// LastCorruption describes the most recent scrub finding, "" if none.
	LastCorruption string
}

// HealthInfo returns the health counters.
func (d *DB) HealthInfo() HealthInfo {
	info := HealthInfo{
		State:            d.Health(),
		Degrades:         d.degrades.Load(),
		Heals:            d.heals.Load(),
		ScrubPasses:      d.scrubPasses.Load(),
		ScrubFiles:       d.scrubFiles.Load(),
		ScrubBytes:       d.scrubBytes.Load(),
		ScrubCorruptions: d.scrubCorruptions.Load(),
	}
	d.causeMu.Lock()
	if d.degradeCause != nil {
		info.Cause = d.degradeCause.Error()
	}
	d.causeMu.Unlock()
	d.scrubLastMu.Lock()
	info.LastCorruption = d.scrubLast
	d.scrubLastMu.Unlock()
	return info
}

// resolve maps n into the current core instance. After a degraded-mode
// rollback swapped the core (degradeLocked), nodes obtained before the swap
// belong to the superseded instance; mutating through them would silently
// miss the live database. Their IDs still resolve — Reconstruct preserves
// node identities — so the locked wrappers translate stale nodes here. A
// node the rollback removed (including detached fragments, which have no
// store representation) resolves to nil and the mutator reports it missing.
// Caller holds d.mu.
func (d *DB) resolve(n *Node) *Node {
	if n == nil || n.Database() == d.Database {
		return n
	}
	return d.Database.NodeByID(n.ID())
}

func (d *DB) setDegradeCause(err error) {
	d.causeMu.Lock()
	d.degradeCause = err
	d.causeMu.Unlock()
}

// readOnlyErr builds the mutation-rejection error for the degraded state,
// carrying the original failure for diagnostics.
func (d *DB) readOnlyErr() error {
	d.causeMu.Lock()
	cause := d.degradeCause
	d.causeMu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnly, cause)
	}
	return ErrReadOnly
}

// degradeLocked rolls back the failed mutation (the change-log suffix past
// the commit's mark) and moves the database to degraded read-only serving.
// The caller holds d.mu exclusively; suffix is the length of
// ChangesSince(mark) captured before any drain, 0 when the failure came
// after the commit was durable (an automatic checkpoint). Returns the error
// the failing mutator reports.
func (d *DB) degradeLocked(suffix int, cause error) error {
	obsCommitErrors.Inc()
	basis := d.snap.Load()
	if basis == nil {
		return d.failLocked(fmt.Errorf("no rollback basis published: %w", cause))
	}
	all := d.Database.DrainChanges()
	committed := all[:len(all)-suffix]
	st := basis.st.Clone()
	if err := st.ApplyChanges(committed); err != nil {
		return d.failLocked(fmt.Errorf("rollback replay failed: %v: %w", err, cause))
	}
	cdb, err := storage.Reconstruct(st)
	if err != nil {
		return d.failLocked(fmt.Errorf("rollback reconstruction failed: %v: %w", err, cause))
	}
	if d.durOpts.ValidateInvariants {
		if verr := cdb.Validate(); verr != nil {
			return d.failLocked(fmt.Errorf("rolled-back state violates invariants: %v: %w", verr, cause))
		}
	}
	// Swap in the rolled-back database. Reconstruct preserves element
	// identities, so NodeIDs held by clients keep resolving; the evaluator
	// and executor are rebound to the new core instance.
	d.Database = cdb
	d.coreRef.Store(cdb)
	d.ev = mcxquery.NewEvaluator(cdb)
	d.ex = update.NewExecutor(cdb)
	d.ex.Plans = d.planCache
	d.publish(st, cdb.Generation())

	d.transitionHealth(DegradedReadOnly)
	d.setDegradeCause(cause)
	d.degrades.Add(1)
	obsDegrades.Inc()
	return fmt.Errorf("colorful: commit failed and was rolled back, %w", d.readOnlyErr())
}

// failLocked moves the database to the terminal Failed state. Caller holds
// d.mu exclusively, inside a commit: failure is reached only from Healthy,
// when a commit's rollback machinery gives out.
func (d *DB) failLocked(cause error) error {
	d.transitionHealth(Failed)
	d.setDegradeCause(cause)
	d.durErr = fmt.Errorf("%w: %v", ErrFailed, cause)
	return d.durErr
}

// probeLoop is the disk-recovery monitor, one long-lived goroutine per
// durable database (started by Open, stopped by Close). While the database
// is degraded it polls ProbeDisk at the configured interval and heals when
// the disk accepts durable writes again; while healthy it idles on the
// ticker. A single persistent goroutine avoids any start/stop handoff race
// between consecutive degrades.
func (d *DB) probeLoop() {
	t := time.NewTicker(d.durOpts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
		}
		if d.Health() != DegradedReadOnly {
			continue
		}
		d.mu.RLock()
		dur := d.dur
		d.mu.RUnlock()
		if dur == nil {
			return
		}
		obsProbes.Inc()
		if err := dur.ProbeDisk(); err != nil {
			continue
		}
		d.mu.Lock()
		if d.Health() == DegradedReadOnly && d.dur != nil {
			_ = d.healLocked() // on failure the probe keeps watching
		}
		d.mu.Unlock()
	}
}

// healLocked returns a degraded database to Healthy once the disk accepts
// writes: degraded mode rejected every mutation, so the core state is the
// committed state, and checkpointing it puts the segment that may hold the
// rolled-back record below the epoch. Caller holds d.mu exclusively.
func (d *DB) healLocked() error {
	if err := d.checkpointLocked(); err != nil {
		return err
	}
	d.transitionHealth(Healthy)
	d.setDegradeCause(nil)
	d.heals.Add(1)
	obsHeals.Inc()
	return nil
}

// scrubBudget is the scrubber's I/O budget per tick, in bytes.
const scrubBudget = 1 << 20

// scrubLoop is the online integrity scrubber: at each tick it verifies a
// budget's worth of at-rest files (checkpoint page checksums, sealed WAL
// record CRCs) and, when corruption is found, triggers a fresh checkpoint —
// the healing action: a new checkpoint supersedes and garbage-collects the
// damaged file. Runs only when Options.ScrubInterval is set.
func (d *DB) scrubLoop() {
	t := time.NewTicker(d.durOpts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
		}
		d.mu.RLock()
		dur := d.dur
		d.mu.RUnlock()
		if dur == nil {
			return
		}
		res, err := dur.ScrubOnce(scrubBudget)
		if err != nil {
			continue
		}
		d.scrubFiles.Add(uint64(res.Files))
		d.scrubBytes.Add(uint64(res.Bytes))
		if res.PassComplete {
			d.scrubPasses.Add(1)
		}
		if len(res.Corruptions) > 0 {
			d.scrubCorruptions.Add(uint64(len(res.Corruptions)))
			c := res.Corruptions[0]
			d.scrubLastMu.Lock()
			d.scrubLast = fmt.Sprintf("%s@%d: %s", c.File, c.Offset, c.Detail)
			d.scrubLastMu.Unlock()
			// Heal by checkpoint; only attempt while healthy (a degraded
			// database cannot write one).
			if d.Health() == Healthy {
				_ = d.Checkpoint()
			}
		}
	}
}
