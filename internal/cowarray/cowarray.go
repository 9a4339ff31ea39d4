// Package cowarray implements a persistent (copy-on-write) sparse array
// indexed by dense integers. It holds the physical store's location tables
// (element id -> record) and the page store's image directory (page number ->
// image): both are keyed by integers handed out in sequence, both belong to a
// store snapshot that is cloned on every commit, and both change in one or
// two places between clones.
//
// Arrays share storage exactly the way btree.Tree does: Clone is O(1), the
// two arrays share every chunk (and the chunk directory) until one of them
// writes, and a write copies the one chunk it lands in unless the writing
// array already owns it. A frozen array may therefore be read from many
// goroutines while its clones evolve.
package cowarray

import "math/bits"

// ChunkSize is the number of slots per chunk: the unit of copying. One chunk
// of 8-byte values is a 4 KiB copy.
const ChunkSize = 512

const chunkShift = 9 // log2(ChunkSize)

// owner is an identity token: a chunk may be written in place only by the
// array whose token it carries.
type owner struct{ _ byte }

type chunk[T any] struct {
	own     *owner
	used    int
	present [ChunkSize / 64]uint64
	vals    [ChunkSize]T
}

// Array is a sparse array of T. The zero value is an empty array.
type Array[T any] struct {
	chunks []*chunk[T]
	// sharedDir marks a chunk directory that a clone may still reference: it
	// is copied before its first change.
	sharedDir bool
	own       *owner
	n         int
}

// Clone returns a copy-on-write sibling in O(1). Either side copies what it
// shares on its next write, so neither observes the other's changes. The
// receiver must not be written concurrently with Clone; concurrent reads are
// fine.
func (a *Array[T]) Clone() *Array[T] {
	// Orphan the shared chunks from both arrays.
	a.own = &owner{}
	a.sharedDir = true
	return &Array[T]{chunks: a.chunks, sharedDir: true, own: &owner{}, n: a.n}
}

// Len returns the number of set slots.
func (a *Array[T]) Len() int { return a.n }

// Get returns the value at i and whether the slot is set.
func (a *Array[T]) Get(i uint64) (v T, ok bool) {
	ci := i >> chunkShift
	if ci >= uint64(len(a.chunks)) {
		return v, false
	}
	c := a.chunks[ci]
	if c == nil {
		return v, false
	}
	slot := i & (ChunkSize - 1)
	if c.present[slot/64]&(1<<(slot%64)) == 0 {
		return v, false
	}
	return c.vals[slot], true
}

// Set stores v at i. The directory grows to cover i, so callers bound the
// indexes they accept.
func (a *Array[T]) Set(i uint64, v T) {
	c := a.mutable(i >> chunkShift)
	slot := i & (ChunkSize - 1)
	if bit := uint64(1) << (slot % 64); c.present[slot/64]&bit == 0 {
		c.present[slot/64] |= bit
		c.used++
		a.n++
	}
	c.vals[slot] = v
}

// Delete clears slot i and reports whether it was set. A chunk left empty is
// dropped.
func (a *Array[T]) Delete(i uint64) bool {
	if _, ok := a.Get(i); !ok {
		return false
	}
	ci := i >> chunkShift
	c := a.mutable(ci)
	slot := i & (ChunkSize - 1)
	c.present[slot/64] &^= 1 << (slot % 64)
	var zero T
	c.vals[slot] = zero
	c.used--
	a.n--
	if c.used == 0 {
		a.chunks[ci] = nil
	}
	return true
}

// mutable returns chunk ci for writing: the directory and the chunk are
// copied first if a clone may still see them.
func (a *Array[T]) mutable(ci uint64) *chunk[T] {
	switch {
	case a.sharedDir:
		dir := make([]*chunk[T], max(uint64(len(a.chunks)), ci+1))
		copy(dir, a.chunks)
		a.chunks, a.sharedDir = dir, false
	case ci >= uint64(len(a.chunks)):
		a.chunks = append(a.chunks, make([]*chunk[T], ci+1-uint64(len(a.chunks)))...)
	}
	c := a.chunks[ci]
	switch {
	case c == nil:
		c = &chunk[T]{own: a.own}
		a.chunks[ci] = c
	case c.own != a.own:
		cp := *c
		cp.own = a.own
		c = &cp
		a.chunks[ci] = c
	}
	return c
}

// Ascend calls fn for every set slot in ascending index order until fn
// returns false.
func (a *Array[T]) Ascend(fn func(i uint64, v T) bool) {
	for ci, c := range a.chunks {
		if c == nil {
			continue
		}
		for w, word := range c.present {
			for word != 0 {
				slot := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if !fn(uint64(ci)<<chunkShift|uint64(slot), c.vals[slot]) {
					return
				}
			}
		}
	}
}
