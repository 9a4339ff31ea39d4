package colorful

import (
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/cowarray"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// This file implements the concurrent-serving discipline of the DB facade.
//
// Readers are lock-free: a query loads the current immutable store snapshot
// from an atomic pointer and runs entirely against it. Writers serialize
// behind the DB's writer lock and mutate the core database, and all snapshot
// maintenance runs under that lock too. Update publishes a fresh snapshot
// itself, inside its commit scope; after any other mutator the next snapshot
// request takes the lock and does. Either way the snapshot is made
// incrementally, by replaying the core change log onto a copy-on-write clone
// of the previous snapshot (both O(change)). A full storage.Load builds the
// first snapshot, and replaces a replay the store refused.

// incrementalMaxDelta bounds the change log: a commit that leaves more
// changes than this in it publishes them (commitLocked), so no replay is
// longer than one commit plus this many changes.
const incrementalMaxDelta = 4096

// snapshot is what a reader needs of one database generation: the immutable
// store a plan runs on, the identity table that turns the element references
// it returns into nodes, and the attribute table that turns an element and a
// position in its record's attribute list into the attribute node. The fields
// are write-once; a published snapshot is never mutated again.
type snapshot struct {
	st    *storage.Store
	nodes *cowarray.Array[*core.Node]
	attrs *cowarray.Array[*[]*core.Node]
	gen   uint64
}

// MaintStats counts snapshot maintenance activity: how many snapshots were
// produced by incremental change-log replay versus full rebuilds, and how
// many were published in total. An in-memory database's first build counts
// as a full rebuild; a durable Open publishes its recovered store, and so
// rebuilds nothing.
type MaintStats struct {
	IncrementalApplies uint64
	FullRebuilds       uint64
	Publishes          uint64
}

// MaintStats returns a point-in-time copy of the maintenance counters.
func (d *DB) MaintStats() MaintStats {
	return MaintStats{
		IncrementalApplies: d.incrementalApplies.Load(),
		FullRebuilds:       d.fullRebuilds.Load(),
		Publishes:          d.publishes.Load(),
	}
}

// planOptions assembles compile options against one snapshot's catalog.
func (d *DB) planOptions(st *storage.Store) plan.Options {
	return plan.Options{Catalog: plan.StoreCatalog{Store: st}}
}

// Refresh brings the published snapshot up to date with the database,
// building it if necessary. Queries refresh lazily on their own; Refresh is
// for callers that want the maintenance cost paid up front.
func (d *DB) Refresh() error {
	_, err := d.currentSnapshot()
	return err
}

// currentSnapshot returns a snapshot at the database's current generation.
//
// Fast path: the published snapshot is current — return it without any
// lock. Slow path: take the writer lock, so the generation and change log
// cannot move and no other maintainer runs, and maintain the snapshot the
// way Update does (refreshHoldingMu). Readers that find the same stale
// snapshot queue on the lock; the first one refreshes and the rest find the
// snapshot current.
//
// A query that loses the race with a concurrent writer may serve the
// just-superseded snapshot; that is exactly the pre-state of an update that
// has not been observed yet, so readers always see some statement-boundary
// state.
func (d *DB) currentSnapshot() (*snapshot, error) {
	if sp := d.publishedSnapshot(); sp != nil {
		return sp, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.refreshHoldingMu()
}

// publishedSnapshot is currentSnapshot's fast path alone: the published
// snapshot if it is current, nil if it is not.
func (d *DB) publishedSnapshot() *snapshot {
	// coreRef (not the embedded field) keeps this fast path race-free
	// against a degraded-mode core swap.
	if sp := d.snap.Load(); sp != nil && sp.gen == d.coreRef.Load().Generation() {
		return sp
	}
	return nil
}

// refreshHoldingMu is the one maintenance body: drain the change log, replay
// it onto a clone of the published snapshot (or rebuild), publish. The
// caller holds d.mu exclusively, so the generation and the log cannot move
// underneath it.
func (d *DB) refreshHoldingMu() (*snapshot, error) {
	gen := d.Database.Generation()
	old := d.snap.Load()
	if old != nil && old.gen == gen {
		return old, nil
	}
	changes := d.Database.DrainChanges()
	why := obsRebuildFirst
	if old != nil {
		why = obsRebuildReplayRefused
		clone := old.st.Clone()
		if err := clone.ApplyChanges(changes); err == nil {
			if verr := d.validateAfterApply(); verr != nil {
				return nil, verr
			}
			d.incrementalApplies.Add(1)
			obsSnapApplies.Inc()
			return d.publish(clone, gen), nil
		}
		// Replay failed (a color out of interval positions): discard the
		// clone and rebuild from the authoritative core state below.
	}
	st, err := storage.Load(d.Database, 0)
	if err != nil {
		return nil, err
	}
	d.fullRebuilds.Add(1)
	obsSnapRebuilds.Inc()
	why.Inc()
	return d.publish(st, gen), nil
}

// validateAfterApply runs the full core invariant audit after an incremental
// snapshot apply when Options.ValidateInvariants is set. The caller holds
// d.mu already, so this goes straight to the embedded core method — the
// locked wrapper would re-enter the RWMutex. A violation aborts the
// refresh before the suspect snapshot is published.
func (d *DB) validateAfterApply() error {
	if !d.durOpts.ValidateInvariants {
		return nil
	}
	if err := d.Database.Validate(); err != nil {
		return fmt.Errorf("colorful: invariant violation after incremental snapshot apply: %w", err)
	}
	return nil
}

// publish makes st the snapshot of generation gen, with the identity and
// attribute tables as they are now: the caller holds d.mu, and st reflects
// the core at gen. It freezes st, so the values answers view in its records
// never change (Rows.Items); writers clone st and never write it again.
func (d *DB) publish(st *storage.Store, gen uint64) *snapshot {
	st.Freeze()
	sp := &snapshot{st: st, nodes: d.Database.SnapshotNodes(), attrs: d.Database.SnapshotAttrs(), gen: gen}
	d.snap.Store(sp)
	d.publishes.Add(1)
	obsSnapPublishes.Inc()
	return sp
}
