package engine

// Violation: the row view outlives the Reset that recycled its batch.
func resetInvalidates(b *Batch) {
	r := b.Row(0)
	b.Reset(2)
	use(r) // want "view r used after Batch.Reset invalidated"
}

// Legal: the row was copied before the batch was recycled.
func copiedRowSurvives(b *Batch) {
	r := b.Row(0)
	cp := copyRow(r)
	b.Reset(2)
	use(cp)
}

// Legal: reassigning the variable after the refill binds a fresh view.
func rebindIsFresh(b *Batch) {
	r := b.Row(0)
	use(r)
	b.Reset(2)
	r = b.Row(0)
	use(r)
}

// Violation: Reset on one branch poisons the view on every path below the
// merge (may-analysis).
func resetPoisonsOnOnePath(b *Batch, cond bool) {
	r := b.Row(0)
	if cond {
		b.Reset(2)
	}
	use(r) // want "view r used after Batch.Reset invalidated"
}

// Violation: pulling the next row invalidates the previous pull's view.
func pullInvalidatesPrevious(c *batchCursor) {
	r1, ok, _ := c.pull()
	if !ok {
		return
	}
	use(r1)
	r2, _, _ := c.pull()
	use(r1) // want "view r1 used after batchCursor.pull invalidated"
	use(r2)
}

// Legal: the standard drain loop — each iteration's pull poisons the old
// view and immediately rebinds the variable to the fresh one.
func drainLoop(c *batchCursor) {
	for {
		r, ok, _ := c.pull()
		if !ok {
			return
		}
		use(r)
	}
}

// Violation: closing the cursor recycles its batch.
func closedCursor(c *batchCursor) {
	r, ok, _ := c.pull()
	if !ok {
		return
	}
	c.close()
	use(r) // want "view r used after batchCursor.close invalidated"
}

// Violation: NextBatch refills the batch in place.
func refillInvalidates(b *Batch) {
	r := b.Row(0)
	NextBatch(1, b)
	use(r) // want "view r used after NextBatch invalidated"
}

// Violation: pullBatch refills through the operator-pull helper.
func pullBatchInvalidates(b *Batch) {
	r := b.Row(0)
	pullBatch(0, 1, b)
	use(r) // want "view r used after pullBatch invalidated"
}

// Violation: arena allocations are views into the arena's reused buffer.
func releasedArena(a *arena) {
	s := a.alloc(4)
	a.release()
	useSlice(s) // want "view s used after arena.release invalidated"
}
