// Package btree implements an in-memory B+-tree keyed by strings, each key
// holding a postings list of uint64 values. It backs the physical store's
// indexes: the element tag-name index, the content index and the
// attribute-value index (paper Section 7: "we constructed an index on
// element tag name and attribute id ... and on element content and attribute
// value, where needed").
//
// Keys are unique with multi-value postings, matching the index usage where
// one tag or value maps to many structural node references.
//
// Trees are copy-on-write: Clone is O(1) and the two trees share all nodes
// until one of them mutates. Mutations path-copy any node not owned by the
// mutating tree, so a cloned (frozen) snapshot is never modified and may be
// read concurrently from many goroutines while its clones evolve.
package btree

import "sort"

// degree is the maximum number of keys per node.
const degree = 64

// owner is an identity token: a node may be mutated in place only by the
// tree whose owner token it carries.
type owner struct{ _ byte }

// Tree is a B+-tree from string keys to postings lists of uint64.
type Tree struct {
	root   node
	height int
	keys   int
	own    *owner
}

type node interface {
	// find returns the postings for a key, or nil.
	find(key string) []uint64
}

type leaf struct {
	own  *owner
	keys []string
	vals [][]uint64
	// shared[i] marks vals[i] as possibly still referenced by a frozen clone:
	// it must be copied before its first in-place change, and is this leaf's
	// own from then on. nil (a leaf that was never path-copied): none is.
	shared []bool
}

type inner struct {
	own      *owner
	keys     []string // separator keys: child[i] holds keys < keys[i]
	children []node
}

// New creates an empty tree.
func New() *Tree {
	own := &owner{}
	return &Tree{root: &leaf{own: own}, own: own}
}

// Clone returns a copy-on-write snapshot of the tree in O(1). Both trees
// keep working: each path-copies shared nodes on its next mutation, so
// neither ever observes the other's changes. The receiver must not be
// mutated concurrently with Clone.
func (t *Tree) Clone() *Tree {
	// Orphan the shared nodes from both trees so either side copies on
	// write.
	t.own = &owner{}
	return &Tree{root: t.root, height: t.height, keys: t.keys, own: &owner{}}
}

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.keys }

// mutable returns n if owned by own, else a shallow path-copy carrying own.
func mutable(n node, own *owner) node {
	switch x := n.(type) {
	case *leaf:
		if x.own == own {
			return x
		}
		shared := make([]bool, len(x.vals))
		for i := range shared {
			shared[i] = true
		}
		return &leaf{
			own:    own,
			keys:   append([]string(nil), x.keys...),
			vals:   append([][]uint64(nil), x.vals...),
			shared: shared,
		}
	case *inner:
		if x.own == own {
			return x
		}
		return &inner{
			own:      own,
			keys:     append([]string(nil), x.keys...),
			children: append([]node(nil), x.children...),
		}
	}
	return n
}

// Insert appends val to key's postings (creating the key if absent).
func (t *Tree) Insert(key string, val uint64) { t.InsertAt(key, -1, val) }

// InsertAt inserts val at index i of key's postings, for callers that keep a
// postings list in an order of their own; i < 0 or past the end appends.
func (t *Tree) InsertAt(key string, i int, val uint64) {
	if t.root.find(key) == nil {
		t.keys++
	}
	t.root = mutable(t.root, t.own)
	right, sep := t.insertAt(t.root, key, i, val)
	if right != nil {
		t.root = &inner{own: t.own, keys: []string{sep}, children: []node{t.root, right}}
		t.height++
	}
}

// insertAt inserts into an already-mutable node, returning a new right
// sibling and its separator key when the node splits.
func (t *Tree) insertAt(n node, key string, at int, val uint64) (node, string) {
	switch x := n.(type) {
	case *leaf:
		return x.insert(key, at, val)
	case *inner:
		i := x.childFor(key)
		x.children[i] = mutable(x.children[i], t.own)
		right, sep := t.insertAt(x.children[i], key, at, val)
		if right == nil {
			return nil, ""
		}
		x.keys = append(x.keys, "")
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = sep
		x.children = append(x.children, nil)
		copy(x.children[i+2:], x.children[i+1:])
		x.children[i+1] = right
		if len(x.keys) <= degree {
			return nil, ""
		}
		mid := len(x.keys) / 2
		sepUp := x.keys[mid]
		r := &inner{
			own:      x.own,
			keys:     append([]string(nil), x.keys[mid+1:]...),
			children: append([]node(nil), x.children[mid+1:]...),
		}
		x.keys = x.keys[:mid]
		x.children = x.children[:mid+1]
		return r, sepUp
	}
	return nil, ""
}

// Get returns the postings for key (shared storage; do not modify), or nil.
func (t *Tree) Get(key string) []uint64 { return t.root.find(key) }

// Delete removes one occurrence of val from key's postings. It returns true
// when something was removed.
func (t *Tree) Delete(key string, val uint64) bool {
	lf, i := t.mutableLeafFor(key)
	if lf == nil {
		return false
	}
	vals := lf.vals[i]
	for j, v := range vals {
		if v != val {
			continue
		}
		vals = lf.ownVals(i)
		lf.vals[i] = append(vals[:j], vals[j+1:]...)
		if len(lf.vals[i]) == 0 {
			lf.removeAt(i)
			t.keys--
		}
		return true
	}
	return false
}

// DeleteKey removes a key and all its postings. It returns true when the key
// existed. (Underflow is tolerated: nodes may become sparse but remain
// correct; this matches the append-mostly usage of the MCT store.)
func (t *Tree) DeleteKey(key string) bool {
	lf, i := t.mutableLeafFor(key)
	if lf == nil {
		return false
	}
	lf.removeAt(i)
	t.keys--
	return true
}

// mutableLeafFor path-copies down to the leaf holding key and returns it
// with the key's slot, or (nil, 0) when the key is absent. The tree is left
// untouched when the key does not exist.
func (t *Tree) mutableLeafFor(key string) (*leaf, int) {
	if t.root.find(key) == nil {
		return nil, 0
	}
	t.root = mutable(t.root, t.own)
	n := t.root
	for {
		switch x := n.(type) {
		case *leaf:
			i := sort.SearchStrings(x.keys, key)
			if i >= len(x.keys) || x.keys[i] != key {
				return nil, 0
			}
			return x, i
		case *inner:
			i := x.childFor(key)
			x.children[i] = mutable(x.children[i], t.own)
			n = x.children[i]
		}
	}
}

// removeAt drops slot i from an already-mutable leaf. The outer keys/vals
// arrays are private to this leaf (mutable copies them); only the inner
// postings lists may be shared with a frozen clone.
func (l *leaf) removeAt(i int) {
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	if l.shared != nil {
		l.shared = append(l.shared[:i], l.shared[i+1:]...)
	}
}

// ownVals returns slot i's postings as a list this (already-mutable) leaf may
// change in place: the list itself, or on the first call after the leaf was
// path-copied a copy with room for one more value. A list is copied at most
// once per owner, however many values the owner then adds or removes.
func (l *leaf) ownVals(i int) []uint64 {
	if l.shared != nil && l.shared[i] {
		l.vals[i] = append(make([]uint64, 0, len(l.vals[i])+1), l.vals[i]...)
		l.shared[i] = false
	}
	return l.vals[i]
}

// Ascend iterates all (key, postings) pairs in key order; fn returning false
// stops.
func (t *Tree) Ascend(fn func(key string, vals []uint64) bool) {
	ascendFrom(t.root, "", fn)
}

// Range iterates keys in [lo, hi] inclusive; fn returning false stops.
func (t *Tree) Range(lo, hi string, fn func(key string, vals []uint64) bool) {
	ascendFrom(t.root, lo, func(k string, v []uint64) bool {
		if k > hi {
			return false
		}
		return fn(k, v)
	})
}

// Prefix iterates keys with the given prefix in order.
func (t *Tree) Prefix(prefix string, fn func(key string, vals []uint64) bool) {
	ascendFrom(t.root, prefix, func(k string, v []uint64) bool {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return false
		}
		return fn(k, v)
	})
}

// SeekLT returns the greatest key less than key, with its postings; ok is
// false when the tree holds no smaller key.
func (t *Tree) SeekLT(key string) (k string, vals []uint64, ok bool) {
	return seekLT(t.root, key)
}

func seekLT(n node, key string) (string, []uint64, bool) {
	switch x := n.(type) {
	case *leaf:
		if i := sort.SearchStrings(x.keys, key); i > 0 {
			return x.keys[i-1], x.vals[i-1], true
		}
	case *inner:
		// Deletes leave leaves sparse or empty, so the answer may sit further
		// left than the child key belongs to.
		for i := x.childFor(key); i >= 0; i-- {
			if k, vals, ok := seekLT(x.children[i], key); ok {
				return k, vals, true
			}
		}
	}
	return "", nil, false
}

// ascendFrom walks keys >= lo in order without relying on sibling links
// (clones share subtrees, so leaves cannot be chained). It returns false
// when fn stopped the iteration.
func ascendFrom(n node, lo string, fn func(key string, vals []uint64) bool) bool {
	switch x := n.(type) {
	case *leaf:
		i := 0
		if lo != "" {
			i = sort.SearchStrings(x.keys, lo)
		}
		for ; i < len(x.keys); i++ {
			if !fn(x.keys[i], x.vals[i]) {
				return false
			}
		}
		return true
	case *inner:
		i := 0
		if lo != "" {
			i = x.childFor(lo)
		}
		for ; i < len(x.children); i++ {
			if !ascendFrom(x.children[i], lo, fn) {
				return false
			}
		}
		return true
	}
	return true
}

// --- leaf ---------------------------------------------------------------

func (l *leaf) find(key string) []uint64 {
	i := sort.SearchStrings(l.keys, key)
	if i < len(l.keys) && l.keys[i] == key {
		return l.vals[i]
	}
	return nil
}

// insert assumes the leaf is already mutable (owned by the inserting tree).
// val goes to index at of the key's postings (at < 0 or past the end: last).
func (l *leaf) insert(key string, at int, val uint64) (node, string) {
	i := sort.SearchStrings(l.keys, key)
	if i < len(l.keys) && l.keys[i] == key {
		vals := append(l.ownVals(i), val)
		if at >= 0 && at < len(vals)-1 {
			copy(vals[at+1:], vals[at:])
			vals[at] = val
		}
		l.vals[i] = vals
		return nil, ""
	}
	l.keys = append(l.keys, "")
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = []uint64{val}
	if l.shared != nil {
		l.shared = append(l.shared, false)
		copy(l.shared[i+1:], l.shared[i:])
		l.shared[i] = false
	}
	if len(l.keys) <= degree {
		return nil, ""
	}
	// Split.
	mid := len(l.keys) / 2
	right := &leaf{
		own:  l.own,
		keys: append([]string(nil), l.keys[mid:]...),
		vals: append([][]uint64(nil), l.vals[mid:]...),
	}
	if l.shared != nil {
		right.shared = append([]bool(nil), l.shared[mid:]...)
		l.shared = l.shared[:mid]
	}
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	return right, right.keys[0]
}

// --- inner ---------------------------------------------------------------

// childFor returns the child holding key: the first whose separator is
// greater than key (a key equal to a separator lives to its right).
func (in *inner) childFor(key string) int {
	return sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > key })
}

func (in *inner) find(key string) []uint64 {
	return in.children[in.childFor(key)].find(key)
}
