package engine

import (
	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// This file is the vectorized-execution substrate: the column batch that
// operators exchange through NextBatch, the per-query arena that owns every
// row surviving a batch boundary, and the cursor parents use to stream child
// rows out of a scratch batch.

// BatchSize is the target number of rows per batch: large enough to amortize
// the per-transfer virtual dispatch, cancellation poll and ExplainAnalyze
// accounting over ~1K rows, small enough that a pipeline's in-flight batches
// stay a negligible memory footprint.
const BatchSize = 1024

// Batch is a fixed-width block of rows in one contiguous row-major buffer:
// row i is the slice data[i*cols : (i+1)*cols]. The width is set by the first
// row appended after a Reset, so one batch object is reused across operators
// producing different row widths.
//
// Ownership: a batch belongs to the operator (or executor) that passes it to
// NextBatch. The callee resets it, fills at most BatchSize rows, and must
// treat rows of previous fillings as gone. Rows returned by Row are views
// into the batch buffer: valid only until the batch is next reset. Anything
// that must outlive the batch — join build sides, pending output queues,
// result rows — is copied into the query arena first.
type Batch struct {
	cols int
	n    int
	data []storage.SNode
	// held is executor bookkeeping: the number of rows of this batch
	// currently counted in Ctx.live by pullBatch.
	held int
	// pool, when non-nil, supplies the row buffer and receives it back on
	// free: set by the executor and by batchCursor.open from the execution's
	// pool, so batches of a pooled execution recycle their buffers.
	pool *MemPool
	// lent: data came from the pool, and goes back to it when outgrown.
	lent bool
}

// Reset empties the batch. The next appended row fixes the new width.
func (b *Batch) Reset() {
	b.cols = 0
	b.n = 0
	if b.data != nil {
		b.data = b.data[:0]
	}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Cols returns the row width (0 while empty).
func (b *Batch) Cols() int { return b.cols }

// Full reports whether the batch reached BatchSize rows.
func (b *Batch) Full() bool { return b.n >= BatchSize }

// Row returns row i as a view into the batch buffer, valid until the batch
// is reset.
func (b *Batch) Row(i int) Row {
	off := i * b.cols
	return Row(b.data[off : off+b.cols : off+b.cols])
}

// appendSlot reserves the next row and returns it for the caller to fill.
// The first slot after a Reset fixes the batch width.
func (b *Batch) appendSlot(cols int) []storage.SNode {
	if b.n == 0 {
		b.cols = cols
	} else if cols != b.cols {
		panic("engine: mixed row widths in one batch")
	}
	off := b.n * b.cols
	if off+b.cols > cap(b.data) {
		b.grow(off + b.cols)
	}
	b.data = b.data[:off+b.cols]
	b.n++
	return b.data[off : off+b.cols]
}

// grow moves the batch to a buffer with room for need nodes: the first buffer
// holds exactly need, and each next one four times the last, up to BatchSize
// rows. Most operators of a selective plan pass a handful of rows, and a full
// buffer each (57 kB a column) would be most of what such a plan costs to run
// and to keep pooled; fourfold growth keeps the outgrown buffers under a third
// of the final one. An outgrown buffer the pool lent goes back to it, so a
// batch that drew a misfit costs the pool nothing; one made fresh goes to the
// GC, and the pool keeps only what free hands back (see MemPool).
func (b *Batch) grow(need int) {
	full := BatchSize * b.cols
	old, lent := b.data, b.lent
	var buf []storage.SNode
	buf, b.lent = b.pool.lend(kindBuf, min(full, max(need, 4*cap(b.data))), full)
	b.data = append(buf, old...)
	if lent {
		b.pool.put(kindBuf, old)
	}
}

// AppendRow copies one row into the batch.
func (b *Batch) AppendRow(r Row) { copy(b.appendSlot(len(r)), r) }

// appendNode appends a single-column row.
func (b *Batch) appendNode(sn storage.SNode) { b.appendSlot(1)[0] = sn }

// fillStructs resolves structural record refs of color c straight into the
// batch as single-column rows — a scan's whole NextBatch: no per-row call,
// one page lookup per page of records (storage.StructsByRef) — until the
// batch is full, and returns how many refs it consumed.
func (b *Batch) fillStructs(s *storage.Store, refs []uint64, c core.Color) (int, error) {
	n := min(len(refs), BatchSize-b.n)
	if n <= 0 {
		return 0, nil
	}
	b.appendSlot(1) // fixes or checks the width; the rest follow in one stride
	off := b.n - 1
	if off+n > cap(b.data) {
		b.grow(off + n)
	}
	b.data, b.n = b.data[:off+n], off+n
	return n, s.StructsByRef(b.data[off:], refs[:n], c)
}

// appendConcat appends the concatenation of two rows without an intermediate
// allocation.
func (b *Batch) appendConcat(l, r Row) {
	slot := b.appendSlot(len(l) + len(r))
	copy(slot, l)
	copy(slot[len(l):], r)
}

// appendConcatNode appends row l extended by one trailing column.
func (b *Batch) appendConcatNode(l Row, sn storage.SNode) {
	slot := b.appendSlot(len(l) + 1)
	copy(slot, l)
	slot[len(l)] = sn
}

// appendRows bulk-copies rows until the batch is full, returning how many
// were consumed. Used by materializing operators to emit their buffer in
// batch-sized strides without a per-row loop in NextBatch.
func (b *Batch) appendRows(rows []Row) int {
	k := 0
	for ; k < len(rows) && !b.Full(); k++ {
		b.AppendRow(rows[k])
	}
	return k
}

// appendNodes bulk-copies single-column rows until the batch is full,
// returning how many were consumed.
func (b *Batch) appendNodes(nodes []storage.SNode) int {
	k := 0
	for ; k < len(nodes) && !b.Full(); k++ {
		b.appendNode(nodes[k])
	}
	return k
}

// free drops the batch buffer so a closed operator holds no row memory,
// recycling it into the batch's pool when one is attached.
func (b *Batch) free() {
	b.pool.put(kindBuf, b.data)
	b.cols, b.n, b.data, b.lent = 0, 0, nil, false
}

// --- arena ----------------------------------------------------------------

// arenaChunkNodes is the bump-allocator chunk size in SNodes (a few hundred
// KB per chunk at most).
const arenaChunkNodes = 16384

// arena is the per-query bump allocator that owns every row copied out of a
// transient batch: join build sides, pending join outputs, and the result
// rows the executor returns. Chunks are never recycled within a query; the
// whole arena is garbage once the execution's rows are dropped. Allocating
// rows in chunk-sized strides replaces the one-allocation-per-row regime of
// the row-at-a-time executor.
//
// Chunks are drawn from the pool (fresh when there is none) and remembered
// in taken; release hands them back once the execution's rows are provably
// dead (the streaming entry point, whose callers copy what they keep — see
// MemPool).
type arena struct {
	chunk []storage.SNode
	used  int
	pool  *MemPool
	taken [][]storage.SNode
}

// alloc returns a slice of n nodes carved from the current chunk, which the
// caller fully overwrites (pooled chunks are dirty; both callers copy into
// every node they are handed). Oversized requests (wider than a quarter
// chunk) get their own allocation. Like batch buffers (Batch.grow), the first
// chunk holds exactly the first request and each next one four times the
// last, so that a query keeping a handful of rows does not allocate and
// clear 900 kB.
func (a *arena) alloc(n int) []storage.SNode {
	if n > arenaChunkNodes/4 {
		return make([]storage.SNode, n)
	}
	if a.used+n > len(a.chunk) {
		c := a.pool.get(kindChunk, min(arenaChunkNodes, max(n, 4*len(a.chunk))), arenaChunkNodes)
		a.chunk = c[:cap(c)]
		a.taken = append(a.taken, a.chunk)
		a.used = 0
	}
	s := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// release returns every chunk drawn during the execution to the pool, the
// latest (largest) first so that a full free list keeps the big ones. Only
// the streaming executor calls it, after the last batch was visited and the
// plan closed, so no live row can reference the recycled memory.
func (a *arena) release() {
	for i := len(a.taken) - 1; i >= 0; i-- {
		a.pool.put(kindChunk, a.taken[i])
	}
	a.taken, a.chunk, a.used = nil, nil, 0
}

// copyRow copies a transient batch row into the query arena.
func (ctx *Ctx) copyRow(r Row) Row {
	out := ctx.arena.alloc(len(r))
	copy(out, r)
	return Row(out)
}

// concatRow builds the arena-backed concatenation of two rows (either may be
// a transient batch view).
func (ctx *Ctx) concatRow(l, r Row) Row {
	out := ctx.arena.alloc(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return Row(out)
}

// --- cursor ---------------------------------------------------------------

// batchCursor streams a child operator row-at-a-time out of a scratch batch:
// the inner-loop façade parents use while the actual child transfers move
// whole batches through pullBatch. The rows it yields are views into its
// buffer, valid until the next refill — callers copy (via the arena or into
// an output batch) anything they keep.
type batchCursor struct {
	child Op
	buf   Batch
	pos   int
	done  bool
}

// open (re)binds the cursor and opens the child.
func (c *batchCursor) open(ctx *Ctx, child Op) error {
	c.child = child
	c.buf.pool = ctx.arena.pool
	c.buf.Reset()
	c.pos = 0
	c.done = false
	return child.Open(ctx)
}

// pull yields the next child row, refilling the scratch batch through
// pullBatch when it runs dry — so cancellation and ExplainAnalyze accounting
// happen once per batch, not per row. It is the cursor-shaped sibling of the
// old row-at-a-time pull and keeps its name as the lint-visible cancellation
// touchpoint.
func (c *batchCursor) pull(ctx *Ctx) (Row, bool, error) {
	for c.pos >= c.buf.Len() {
		if c.done {
			return nil, false, nil
		}
		if err := pullBatch(ctx, c.child, &c.buf); err != nil {
			return nil, false, err
		}
		c.pos = 0
		if c.buf.Len() == 0 {
			c.done = true
			return nil, false, nil
		}
	}
	r := c.buf.Row(c.pos)
	c.pos++
	return r, true, nil
}

// close releases the cursor's in-flight accounting and buffer; the child is
// closed by the owning operator.
func (c *batchCursor) close(ctx *Ctx) {
	ctx.release(c.buf.held)
	c.buf.held = 0
	c.buf.free()
}
