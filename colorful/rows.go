package colorful

import (
	"fmt"
	"unsafe"

	"colorfulxml/internal/storage"
)

// Rows is a query's result before anyone reads it. On the snapshot route —
// a compiled plan whose output is a leaf of the data — it is the plan's
// answer as element references into the snapshot that produced them, and
// values are read from that snapshot's element records when asked for. On
// every other route (core, evaluator, constructor) it holds the route's
// items.
//
// A Rows pins its snapshot generation: whatever writers commit, and after
// the session or the DB closes, it yields the values of the generation it
// was answered from. It holds no lock and needs no Close.
type Rows struct {
	sp    *snapshot
	ids   []storage.ElemID
	color Color

	items []Item
}

// missing reports an element of the snapshot's store that the identity
// table of its generation has no node for.
func (sp *snapshot) missing(id storage.ElemID) error {
	return fmt.Errorf("colorful: snapshot generation %d stores element %d but has no node for it", sp.gen, id)
}

// resolved passes on a query's result once every row's element resolves
// against the identity table, as Items checks while it reads the nodes:
// QueryRows hands out only Rows that pass, so a reader that never builds a
// node still learns of a snapshot without one before it reads a value.
func resolved(r Rows, err error) (Rows, error) {
	if err != nil {
		return Rows{}, err
	}
	for _, id := range r.ids {
		if _, ok := r.sp.nodes.Get(uint64(id)); !ok {
			return Rows{}, r.sp.missing(id)
		}
	}
	return r, nil
}

// Len returns the number of rows.
func (r Rows) Len() int {
	if r.sp != nil {
		return len(r.ids)
	}
	return len(r.items)
}

// Items materializes the rows as items. On the snapshot route each node
// comes from the identity table of the rows' generation and each value from
// its store's element records; no lock is taken, so the node set and the
// values belong to one generation, and an element deleted meanwhile is still
// the node it was.
func (r Rows) Items() ([]Item, error) {
	if r.sp == nil {
		return r.items, nil
	}
	out := make([]Item, len(r.ids))
	for i, id := range r.ids {
		n, ok := r.sp.nodes.Get(uint64(id))
		if !ok {
			return nil, r.sp.missing(id)
		}
		out[i].Node, out[i].Color = n, r.color
	}
	if err := r.sp.st.ContentBytes(r.ids, func(i int, content []byte) { out[i].Value = string(content) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Each visits rows i to j-1 in order with the node's id (0 for an atomic
// value), its colour and its value, building no Item and no string. The
// value bytes are valid only during the call and must not be modified: on
// the snapshot route they are the element record in its page. A value that
// cannot be read ends the visit with the error.
func (r Rows) Each(i, j int, visit func(node NodeID, color Color, value []byte)) error {
	if r.sp != nil {
		ids := r.ids[i:j]
		return r.sp.st.ContentBytes(ids, func(k int, content []byte) { visit(NodeID(ids[k]), r.color, content) })
	}
	for _, it := range r.items[i:j] {
		var node NodeID
		if it.Node != nil {
			node = it.Node.ID()
		}
		visit(node, it.Color, unsafe.Slice(unsafe.StringData(it.Value), len(it.Value)))
	}
	return nil
}
