package core

import "sort"

// There is no global document order in an MCT database (Section 3.1): each
// colored tree defines its own local order, obtained by a pre-order,
// left-to-right traversal of the colored tree. This file implements local
// order computation, comparison, and order-preserving sequence utilities.

// orderIndex returns (building and caching if needed) the map from node ID to
// pre-order position in the colored tree c rooted at the document node.
// Attribute nodes order immediately after their owner element.
//
// The cache is guarded by orderMu because order lookups happen on read paths
// that may run from several goroutines at once; a cached index map itself is
// immutable once published (invalidation drops it rather than clearing it).
func (db *Database) orderIndex(c Color) map[NodeID]int {
	db.orderMu.Lock()
	defer db.orderMu.Unlock()
	if idx, ok := db.order[c]; ok {
		return idx
	}
	idx := make(map[NodeID]int)
	pos := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		idx[n.id] = pos
		pos++
		for _, a := range n.Attributes() {
			idx[a.id] = pos
			pos++
		}
		for _, ch := range Children(n, c) {
			walk(ch)
		}
	}
	if db.colors[c] {
		walk(db.doc)
	}
	db.order[c] = idx
	return idx
}

// LocalOrder returns the pre-order position of n in the colored tree c rooted
// at the document node, and ok=false when n is not part of that rooted tree
// (detached fragments have no position).
func (db *Database) LocalOrder(n *Node, c Color) (int, bool) {
	p, ok := db.orderIndex(c)[n.id]
	return p, ok
}

// CompareLocal orders two nodes by their local order in color c. Nodes not in
// the rooted tree sort after all nodes that are, by node ID for determinism.
func (db *Database) CompareLocal(a, b *Node, c Color) int {
	idx := db.orderIndex(c)
	pa, oka := idx[a.id]
	pb, okb := idx[b.id]
	switch {
	case oka && okb:
		return pa - pb
	case oka:
		return -1
	case okb:
		return 1
	default:
		return int(a.id) - int(b.id)
	}
}

// SortLocal sorts nodes in place by local order in color c.
func (db *Database) SortLocal(nodes []*Node, c Color) {
	sort.SliceStable(nodes, func(i, j int) bool {
		return db.CompareLocal(nodes[i], nodes[j], c) < 0
	})
}

// TreeNodes returns every node of the rooted colored tree c (document,
// elements, text, comments, PIs; attributes excluded) in local order.
func (db *Database) TreeNodes(c Color) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, ch := range Children(n, c) {
			walk(ch)
		}
	}
	if db.colors[c] {
		walk(db.doc)
	}
	return out
}

// Dedup returns nodes with duplicate identities removed, preserving the first
// occurrence of each.
func Dedup(nodes []*Node) []*Node {
	seen := make(map[NodeID]bool, len(nodes))
	out := nodes[:0:0]
	for _, n := range nodes {
		if !seen[n.id] {
			seen[n.id] = true
			out = append(out, n)
		}
	}
	return out
}
