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
	// shared has bit i set while vals[i] is as a path copy took it from a
	// node a frozen clone may still read: a value that refers to storage of
	// its own must copy that storage before changing it in place (slot).
	// Leaves hold at most degree = 64 keys, so the bits fit.
	shared uint64
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

// mutable returns n if own owns it, else a path copy carrying own, whose
// values are all marked shared.
func mutable[K cmp.Ordered, V any](n *node[K, V], own *owner) *node[K, V] {
	if n.own == own {
		return n
	}
	c := &node[K, V]{own: own, keys: append([]K(nil), n.keys...)}
	if n.leaf() {
		c.vals = append([]V(nil), n.vals...)
		c.shared = 1<<len(n.vals) - 1
	} else {
		c.children = append([]*node[K, V](nil), n.children...)
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
			n.shared &^= 1 << i
			return nil, sep, false
		}
		at, into := len(n.keys), n
		if at == degree {
			if i < degree {
				at = degree / 2
			}
			right = &node[K, V]{
				own:    n.own,
				keys:   append([]K(nil), n.keys[at:]...),
				vals:   append([]V(nil), n.vals[at:]...),
				shared: n.shared >> at,
			}
			clear(n.keys[at:])
			clear(n.vals[at:])
			n.keys, n.vals = n.keys[:at], n.vals[:at]
			n.shared &= 1<<at - 1
			if i >= at {
				into, i = right, i-at
			}
		}
		into.keys = slices.Insert(into.keys, i, key)
		into.vals = slices.Insert(into.vals, i, v)
		low := into.shared & (1<<i - 1)
		into.shared = low | (into.shared^low)<<1
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
	low := n.shared & (1<<i - 1)
	n.shared = low | n.shared>>(i+1)<<i
	m.n--
	return true
}

// slot returns a pointer to key's value in a leaf the map owns, and whether
// that value is still as a path copy took it: then a frozen clone may read
// whatever storage it refers to, and the caller must copy that storage
// before changing it. The slot counts as the map's own from then on. nil
// when the key is absent.
func (m *Map[K, V]) slot(key K) (v *V, shared bool) {
	n, i := m.mutableLeafFor(key)
	if n == nil {
		return nil, false
	}
	shared = n.shared&(1<<i) != 0
	n.shared &^= 1 << i
	return &n.vals[i], shared
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
	if m.root != nil {
		var zero K
		ascend(m.root, zero, false, fn)
	}
}

// Range iterates the keys in [lo, hi] in order; fn returning false stops.
func (m *Map[K, V]) Range(lo, hi K, fn func(key K, v V) bool) {
	if m.root != nil {
		ascend(m.root, lo, true, func(k K, v V) bool { return k <= hi && fn(k, v) })
	}
}

// ascend walks the keys (>= lo, when from) in order without relying on
// sibling links — clones share subtrees, so leaves cannot be chained. It
// returns false when fn stopped the iteration.
func ascend[K cmp.Ordered, V any](n *node[K, V], lo K, from bool, fn func(K, V) bool) bool {
	if n.leaf() {
		i := 0
		if from {
			i = atOrAbove(n.keys, lo)
		}
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	i := 0
	if from {
		i = above(n.keys, lo)
	}
	for ; i < len(n.children); i++ {
		if !ascend(n.children[i], lo, from, fn) {
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
// value arrays to their capacity, and an inner node's child array. What keys
// and values refer to is the caller's to add (Tree.Bytes does, for its
// string keys and posting lists).
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
