// Package btree implements in-memory copy-on-write B+-trees. Map is an
// ordered map with values inline in its leaves; the physical store keeps one
// Map from start position to structural ref per colour. Tree is a Map from
// string keys to postings lists of uint64 values, and backs the store's
// other indexes: the element tag-name index, the content index and the
// attribute-value index (paper Section 7: "we constructed an index on
// element tag name and attribute id ... and on element content and attribute
// value, where needed").
//
// A Tree's keys are unique with multi-value postings, matching the index
// usage where one tag or value maps to many structural node references.
//
// Both are copy-on-write: Clone is O(1) and the two trees share all nodes
// until one of them mutates. Mutations path-copy any node not owned by the
// mutating tree, so a cloned (frozen) snapshot is never modified and may be
// read concurrently from many goroutines while its clones evolve.
package btree

import (
	"slices"
	"unsafe"
)

// Tree is a B+-tree from string keys to postings lists of uint64. Of the
// Map methods it keeps Len, Ascend, Range, SeekLT and Put (which hands the
// list over to the tree); a postings list it hands out is shared storage
// that the caller must not modify.
type Tree struct {
	Map[string, []uint64]
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Clone returns a copy-on-write snapshot of the tree in O(1) (Map.Clone).
func (t *Tree) Clone() *Tree { return &Tree{*t.Map.Clone()} }

// Get returns the postings for key (shared storage; do not modify), or nil.
func (t *Tree) Get(key string) []uint64 {
	vals, _ := t.Map.Get(key)
	return vals
}

// Insert appends val to key's postings (creating the key if absent).
func (t *Tree) Insert(key string, val uint64) { t.InsertAt(key, -1, val) }

// InsertAt inserts val at index i of key's postings, for callers that keep a
// postings list in an order of their own; i < 0 or past the end appends.
func (t *Tree) InsertAt(key string, i int, val uint64) {
	p := t.ownVals(key)
	if p == nil {
		t.Put(key, []uint64{val})
		return
	}
	if i < 0 || i > len(*p) {
		i = len(*p)
	}
	*p = slices.Insert(*p, i, val)
}

// Delete removes one occurrence of val from key's postings. It returns true
// when something was removed.
func (t *Tree) Delete(key string, val uint64) bool {
	j := slices.Index(t.Get(key), val)
	if j < 0 {
		return false
	}
	p := t.ownVals(key)
	if *p = slices.Delete(*p, j, j+1); len(*p) == 0 {
		t.DeleteKey(key)
	}
	return true
}

// DeleteKey removes a key and all its postings. It returns true when the key
// existed.
func (t *Tree) DeleteKey(key string) bool { return t.Map.Delete(key) }

// ownVals returns key's postings as a list the tree may change in place, or
// nil when the key is absent: the list itself, or on the first change after
// a path copy took it from a frozen clone, a copy with room for one more
// value. A list is copied at most once per owner, however many values the
// owner then adds or removes.
func (t *Tree) ownVals(key string) *[]uint64 {
	p, shared := t.slot(key)
	if shared {
		*p = append(make([]uint64, 0, len(*p)+1), *p...)
	}
	return p
}

// Bytes returns the memory the tree holds: its nodes (Map.Bytes), the bytes
// of its keys and the backing arrays of its postings lists.
func (t *Tree) Bytes() int64 {
	total := t.Map.Bytes()
	t.Ascend(func(k string, vals []uint64) bool {
		total += allocSize(int64(len(k))) + allocSize(int64(cap(vals))*int64(unsafe.Sizeof(vals[0])))
		return true
	})
	return total
}
