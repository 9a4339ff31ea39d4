// Package btree implements an in-memory copy-on-write B+-tree, Map: an
// ordered map with its keys and values inline in its leaves. The physical
// store keys every index by what the index orders (paper Section 7: "we
// constructed an index on element tag name and attribute id ... and on
// element content and attribute value, where needed"): one Map from start
// position to structural ref per colour, and per (colour, tag) one Map from
// start and one from content and start, so each leaf holds its postings in
// the order the structural joins read them, and Leaves hands them out a
// leaf at a time.
//
// Maps are copy-on-write: Clone is O(1) and the two maps share all nodes
// until one of them mutates. A mutation path-copies any node not owned by
// the mutating map, so a cloned (frozen) snapshot is never modified and may
// be read concurrently from many goroutines while its clones evolve.
package btree

// Lists is a Map from strings to lists of values. It is kept only because
// the nested benchmark module's btree.get probe builds one through New,
// Insert and Get; no index uses it.
type Lists struct{ Map[string, []uint64] }

// New returns an empty Lists.
func New() *Lists { return &Lists{} }

// Insert appends v to key's list.
func (l *Lists) Insert(key string, v uint64) {
	vals, _ := l.Map.Get(key)
	l.Put(key, append(vals[:len(vals):len(vals)], v))
}

// Get returns key's list, or nil.
func (l *Lists) Get(key string) []uint64 {
	vals, _ := l.Map.Get(key)
	return vals
}
