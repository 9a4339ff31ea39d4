package btree

import (
	"cmp"
	"slices"
	"unsafe"
)

// degree is the maximum number of keys per node.
const degree = 64

// owner is an identity token: a node may be mutated in place only by the
// map whose owner token it carries.
type owner struct{ _ byte }

// Map is an ordered map from keys to values held inline in its leaves, so a
// map of plain numbers is a handful of pointer-free arrays the garbage
// collector never scans. The zero Map is empty and ready to use.
//
// Maps are copy-on-write: Clone is O(1) and the two maps share all nodes
// until one of them mutates. A mutation path-copies every node on its way
// that the mutating map does not own, so a frozen clone is never modified
// and may be read from many goroutines while its successors change.
type Map[K cmp.Ordered, V any] struct {
	root *node[K, V]
	n    int
	own  *owner
}

// node is a leaf (children nil: keys with their vals) or an inner node
// (separator keys; children[i] holds the keys below keys[i], the last child
// those at or above the last separator).
type node[K cmp.Ordered, V any] struct {
	own      *owner
	keys     []K
	vals     []V
	children []*node[K, V]
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// Clone returns a copy-on-write snapshot of the map in O(1). Both maps keep
// working: each path-copies shared nodes on its next mutation, so neither
// ever observes the other's changes. The receiver must not be mutated
// concurrently with Clone.
func (m *Map[K, V]) Clone() *Map[K, V] {
	// Orphan the shared nodes from both maps so either side copies on write.
	m.own = &owner{}
	return &Map[K, V]{root: m.root, n: m.n, own: &owner{}}
}

// Len returns the number of keys.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns key's value.
func (m *Map[K, V]) Get(key K) (v V, ok bool) {
	n := m.root
	if n == nil {
		return v, false
	}
	for !n.leaf() {
		n = n.children[above(n.keys, key)]
	}
	if i := atOrAbove(n.keys, key); i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return v, false
}

// atOrAbove returns the index of the first key >= key.
func atOrAbove[K cmp.Ordered](keys []K, key K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// above returns the index of the first key > key: in an inner node, the
// child that holds key (a key equal to a separator lives to its right).
func above[K cmp.Ordered](keys []K, key K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mutable returns n if own owns it, else a path copy carrying own, with room
// for the one key a Put adds to it.
func mutable[K cmp.Ordered, V any](n *node[K, V], own *owner) *node[K, V] {
	if n.own == own {
		return n
	}
	c := &node[K, V]{own: own, keys: append(make([]K, 0, len(n.keys)+1), n.keys...)}
	if n.leaf() {
		c.vals = append(make([]V, 0, len(n.vals)+1), n.vals...)
	} else {
		c.children = append(make([]*node[K, V], 0, len(n.children)+1), n.children...)
	}
	return c
}

// mutableRoot makes the root this map's own, creating it in an empty map.
func (m *Map[K, V]) mutableRoot() *node[K, V] {
	if m.own == nil {
		m.own = &owner{}
	}
	if m.root == nil {
		m.root = &node[K, V]{own: m.own}
	}
	m.root = mutable(m.root, m.own)
	return m.root
}

// Put sets key's value, adding the key if it is absent.
func (m *Map[K, V]) Put(key K, v V) {
	right, sep, added := m.put(m.mutableRoot(), key, v)
	if added {
		m.n++
	}
	if right != nil {
		m.root = &node[K, V]{own: m.own, keys: []K{sep}, children: []*node[K, V]{m.root, right}}
	}
}

// put inserts into n, which the map already owns, and returns n's new right
// sibling with its separator when n splits.
//
// A node splits when it is full, and in the middle — unless the new key
// goes past its last, where the node stays full and the sibling takes just
// the new key. Keys that arrive in ascending order, as a bulk load's do,
// so fill every node they leave behind.
func (m *Map[K, V]) put(n *node[K, V], key K, v V) (right *node[K, V], sep K, added bool) {
	if n.leaf() {
		i := atOrAbove(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = v
			return nil, sep, false
		}
		at, into := len(n.keys), n
		if at == degree {
			if i < degree {
				at = degree / 2
			}
			right = &node[K, V]{
				own:  n.own,
				keys: append([]K(nil), n.keys[at:]...),
				vals: append([]V(nil), n.vals[at:]...),
			}
			clear(n.keys[at:])
			clear(n.vals[at:])
			n.keys, n.vals = n.keys[:at], n.vals[:at]
			if i >= at {
				into, i = right, i-at
			}
		}
		into.keys = slices.Insert(into.keys, i, key)
		into.vals = slices.Insert(into.vals, i, v)
		if right != nil {
			sep = right.keys[0]
		}
		return right, sep, true
	}
	i := above(n.keys, key)
	n.children[i] = mutable(n.children[i], m.own)
	child, childSep, added := m.put(n.children[i], key, v)
	if child == nil {
		return nil, sep, added
	}
	n.keys = slices.Insert(n.keys, i, childSep)
	n.children = slices.Insert(n.children, i+1, child)
	if len(n.keys) <= degree {
		return nil, sep, added
	}
	mid := degree / 2
	if i == degree {
		mid = degree
	}
	right = &node[K, V]{
		own:      n.own,
		keys:     append([]K(nil), n.keys[mid+1:]...),
		children: append([]*node[K, V](nil), n.children[mid+1:]...),
	}
	sep = n.keys[mid]
	clear(n.keys[mid:])
	clear(n.children[mid+1:])
	n.keys, n.children = n.keys[:mid], n.children[:mid+1]
	return right, sep, added
}

// Delete removes key. It returns true when the key existed. Underflow is
// tolerated: nodes may become sparse or empty but remain correct, which
// suits the append-mostly usage of the MCT store.
func (m *Map[K, V]) Delete(key K) bool {
	n, i := m.mutableLeafFor(key)
	if n == nil {
		return false
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.vals = slices.Delete(n.vals, i, i+1)
	m.n--
	return true
}

// mutableLeafFor path-copies down to the leaf holding key and returns it
// with the key's slot, or (nil, 0) when the key is absent; the map is left
// untouched then.
func (m *Map[K, V]) mutableLeafFor(key K) (*node[K, V], int) {
	if _, ok := m.Get(key); !ok {
		return nil, 0
	}
	n := m.mutableRoot()
	for !n.leaf() {
		i := above(n.keys, key)
		n.children[i] = mutable(n.children[i], m.own)
		n = n.children[i]
	}
	return n, atOrAbove(n.keys, key)
}

// Ascend iterates all (key, value) pairs in key order; fn returning false
// stops.
func (m *Map[K, V]) Ascend(fn func(key K, v V) bool) {
	var lo K
	m.leaves(lo, false, func(keys []K, vals []V) bool {
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return false
			}
		}
		return true
	})
}

// Range iterates the keys in [lo, hi] in order; fn returning false stops.
func (m *Map[K, V]) Range(lo, hi K, fn func(key K, v V) bool) {
	m.Leaves(lo, func(keys []K, vals []V) bool {
		for i, k := range keys {
			if k > hi || !fn(k, vals[i]) {
				return false
			}
		}
		return true
	})
}

// Leaves calls fn with the keys at or above lo a leaf at a time, in order,
// each leaf's keys with their values: slices of the leaf itself, which the
// caller must not modify or keep past a mutation of the map. fn returning
// false stops. Empty leaves are skipped.
func (m *Map[K, V]) Leaves(lo K, fn func(keys []K, vals []V) bool) { m.leaves(lo, true, fn) }

func (m *Map[K, V]) leaves(lo K, from bool, fn func([]K, []V) bool) {
	if m.root != nil {
		leaves(m.root, lo, from, fn)
	}
}

// leaves walks the leaves holding keys (>= lo, when from) in order without
// relying on sibling links — clones share subtrees, so leaves cannot be
// chained. It returns false when fn stopped the walk.
func leaves[K cmp.Ordered, V any](n *node[K, V], lo K, from bool, fn func([]K, []V) bool) bool {
	if n.leaf() {
		i := 0
		if from {
			i = atOrAbove(n.keys, lo)
		}
		return i == len(n.keys) || fn(n.keys[i:], n.vals[i:])
	}
	i := 0
	if from {
		i = above(n.keys, lo)
	}
	for ; i < len(n.children); i++ {
		if !leaves(n.children[i], lo, from, fn) {
			return false
		}
	}
	return true
}

// SeekLT returns the greatest key less than key, with its value; ok is false
// when the map holds no smaller key.
func (m *Map[K, V]) SeekLT(key K) (k K, v V, ok bool) {
	if m.root == nil {
		return k, v, false
	}
	return seekLT(m.root, key)
}

func seekLT[K cmp.Ordered, V any](n *node[K, V], key K) (k K, v V, ok bool) {
	if n.leaf() {
		if i := atOrAbove(n.keys, key); i > 0 {
			return n.keys[i-1], n.vals[i-1], true
		}
		return k, v, false
	}
	// Deletes leave leaves sparse or empty, so the answer may sit further
	// left than the child key belongs to.
	for i := above(n.keys, key); i >= 0; i-- {
		if k, v, ok = seekLT(n.children[i], key); ok {
			return k, v, true
		}
	}
	return k, v, false
}

// Bytes returns the memory the map's nodes hold: each node, its key and
// value arrays to their capacity, an inner node's child array, and the
// bytes of string keys, each counted as its own allocation. What values
// refer to is the caller's to add.
func (m *Map[K, V]) Bytes() int64 {
	if m.root == nil {
		return 0
	}
	return nodeBytes(m.root)
}

func nodeBytes[K cmp.Ordered, V any](n *node[K, V]) int64 {
	var k K
	var v V
	var c *node[K, V]
	total := allocSize(int64(unsafe.Sizeof(*n))) + allocSize(int64(cap(n.keys))*int64(unsafe.Sizeof(k))) +
		allocSize(int64(cap(n.vals))*int64(unsafe.Sizeof(v))) + allocSize(int64(cap(n.children))*int64(unsafe.Sizeof(c)))
	if keys, ok := any(n.keys).([]string); ok && n.leaf() {
		for _, k := range keys {
			total += allocSize(int64(len(k)))
		}
	}
	for _, ch := range n.children {
		total += nodeBytes(ch)
	}
	return total
}

// allocSize is the heap the Go allocator takes for an object of n bytes.
// Below 16 bytes that is a share of a 16-byte block (the tiny allocator's,
// for pointer-free objects), counted whole: the block is freed only with its
// neighbours. Size classes step by 8 up to 32 bytes and by 16 up to 256.
// Past that they step by 32 or more, but the arrays counted here grow by
// append, which already rounds their capacity to a class; only a key string
// longer than 256 bytes is counted a little low.
func allocSize(n int64) int64 {
	switch {
	case n == 0:
		return 0
	case n <= 16:
		return 16
	case n <= 32:
		return (n + 7) &^ 7
	}
	return (n + 15) &^ 15
}
