package colorful

// DropRollbackBasis unpublishes d's snapshot, the basis a failed commit's
// rollback replays onto, so that the next failed commit cannot roll back.
// The next query loads a first snapshot again.
func DropRollbackBasis(d *DB) {
	d.mu.Lock()
	d.snap.Store(nil)
	d.mu.Unlock()
}
