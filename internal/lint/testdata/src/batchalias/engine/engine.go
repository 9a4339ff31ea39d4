// Package engine mirrors the shapes the batchalias analyzer keys on: Batch
// rows and arena allocations are views into reused storage, invalidated by
// Reset/free, cursor pull/close, arena release, and the NextBatch /
// pullBatch refill helpers.
package engine

type Row []uint32

type Batch struct {
	data []uint32
	cols int
	rows int
}

func (b *Batch) Row(i int) Row {
	off := i * b.cols
	return Row(b.data[off : off+b.cols : off+b.cols])
}

func (b *Batch) Reset(cols int) { b.cols, b.rows, b.data = cols, 0, b.data[:0] }
func (b *Batch) free()          { b.data = nil }

type batchCursor struct {
	buf *Batch
	pos int
}

func (c *batchCursor) pull() (Row, bool, error) {
	if c.pos >= c.buf.rows {
		return nil, false, nil
	}
	r := c.buf.Row(c.pos)
	c.pos++
	return r, true, nil
}

func (c *batchCursor) close() { c.buf.free() }

type arena struct {
	buf  []uint32
	used int
}

func (a *arena) alloc(n int) []uint32 {
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

func (a *arena) release() { a.used = 0 }

func NextBatch(n int, b *Batch) bool    { b.rows = n; return n > 0 }
func pullBatch(x, n int, b *Batch) bool { b.rows = n; return n > 0 }
func use(r Row)                         { _ = r }
func useSlice(s []uint32)               { _ = s }
func copyRow(r Row) Row                 { return append(Row(nil), r...) }
