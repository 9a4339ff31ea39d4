// Package cowarray implements a persistent (copy-on-write) sparse array
// indexed by dense integers. It holds the physical store's location tables
// (element id -> record), the page store's page directories (page number ->
// page header) and the snapshot identity table (id -> node): all are keyed by
// integers handed out in sequence, all belong to a store snapshot that is
// cloned on every commit, and all change in one or two places between
// clones.
//
// A top slice points at directory pages, which point at chunks of slots.
// Arrays share storage exactly the way btree.Map does: Clone is O(1), and a
// write path-copies the top slice, directory page and chunk it goes through
// unless the writing array already owns them. A frozen array may therefore
// be read from many goroutines while its clones evolve.
package cowarray

import "math/bits"

// ChunkSize is the number of slots per chunk: the unit of copying. One chunk
// of 8-byte values is a 512-byte copy, as is one directory page of ChunkSize
// chunk pointers.
const ChunkSize = 64

const (
	chunkShift = 6  // log2(ChunkSize)
	dirShift   = 12 // log2(ChunkSize*ChunkSize): a directory page covers 4 096 ids
)

// owner is an identity token: a node may be written in place only by the
// array whose token it carries.
type owner struct{ _ byte }

// node is a chunk (E = T) or a directory page (E = *node[T]). present marks
// the set slots of a chunk, the non-nil chunks of a page.
type node[E any] struct {
	own     *owner
	present uint64
	vals    [ChunkSize]E
}

// Array is a sparse array of T. The zero value is an empty array.
type Array[T any] struct {
	top []*node[*node[T]]
	// sharedTop marks a top slice that a clone may still reference: it is
	// copied before its first change.
	sharedTop bool
	own       *owner
	n         int
}

// Clone returns a copy-on-write sibling in O(1). Either side copies what it
// shares on its next write, so neither observes the other's changes. The
// receiver must not be written concurrently with Clone; concurrent reads are
// fine.
func (a *Array[T]) Clone() *Array[T] {
	// Orphan the shared nodes from both arrays.
	a.own = &owner{}
	a.sharedTop = true
	return &Array[T]{top: a.top, sharedTop: true, own: &owner{}, n: a.n}
}

// Len returns the number of set slots.
func (a *Array[T]) Len() int { return a.n }

// Get returns the value at i and whether the slot is set.
func (a *Array[T]) Get(i uint64) (v T, ok bool) {
	if di := i >> dirShift; di < uint64(len(a.top)) {
		if d := a.top[di]; d != nil {
			if c := d.vals[i>>chunkShift&(ChunkSize-1)]; c != nil && c.present&(1<<(i&(ChunkSize-1))) != 0 {
				return c.vals[i&(ChunkSize-1)], true
			}
		}
	}
	return v, false
}

// Set stores v at i. The top slice grows to cover i, so callers bound the
// indexes they accept.
func (a *Array[T]) Set(i uint64, v T) {
	di, ci := i>>dirShift, i>>chunkShift&(ChunkSize-1)
	d := writable(&a.ownTop(di)[di], a.own)
	d.present |= 1 << ci
	c := writable(&d.vals[ci], a.own)
	if bit := uint64(1) << (i & (ChunkSize - 1)); c.present&bit == 0 {
		c.present |= bit
		a.n++
	}
	c.vals[i&(ChunkSize-1)] = v
}

// Delete clears slot i and reports whether it was set. A chunk left empty is
// dropped without being copied first, and so is a directory page left empty.
func (a *Array[T]) Delete(i uint64) bool {
	if _, ok := a.Get(i); !ok {
		return false
	}
	a.n--
	di, ci, bit := i>>dirShift, i>>chunkShift&(ChunkSize-1), uint64(1)<<(i&(ChunkSize-1))
	switch top := a.ownTop(di); {
	case top[di].vals[ci].present != bit:
		c := writable(&writable(&top[di], a.own).vals[ci], a.own)
		c.present &^= bit
		var zero T
		c.vals[i&(ChunkSize-1)] = zero
	case top[di].present == 1<<ci: // the page's last chunk
		top[di] = nil
	default:
		d := writable(&top[di], a.own)
		d.present &^= 1 << ci
		d.vals[ci] = nil
	}
	return true
}

// writable returns *p for writing by own, after replacing it with a new node
// if it is nil or with a copy if own does not own it.
func writable[E any](p **node[E], own *owner) *node[E] {
	switch n := *p; {
	case n == nil:
		*p = &node[E]{own: own}
	case n.own != own:
		cp := *n
		cp.own = own
		*p = &cp
	}
	return *p
}

// ownTop makes the top slice this array's own and long enough to hold
// directory page di, and returns it.
func (a *Array[T]) ownTop(di uint64) []*node[*node[T]] {
	switch {
	case a.sharedTop:
		top := make([]*node[*node[T]], max(uint64(len(a.top)), di+1))
		copy(top, a.top)
		a.top, a.sharedTop = top, false
	case di >= uint64(len(a.top)):
		a.top = append(a.top, make([]*node[*node[T]], di+1-uint64(len(a.top)))...)
	}
	return a.top
}

// Ascend calls fn for every set slot in ascending index order until fn
// returns false.
func (a *Array[T]) Ascend(fn func(i uint64, v T) bool) {
	for di, d := range a.top {
		if d == nil {
			continue
		}
		for cs := d.present; cs != 0; cs &= cs - 1 {
			ci := bits.TrailingZeros64(cs)
			c, base := d.vals[ci], uint64(di)<<dirShift|uint64(ci)<<chunkShift
			for w := c.present; w != 0; w &= w - 1 {
				s := bits.TrailingZeros64(w)
				if !fn(base|uint64(s), c.vals[s]) {
					return
				}
			}
		}
	}
}
