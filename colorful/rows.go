package colorful

import (
	"fmt"
	"unsafe"

	"colorfulxml/internal/engine"
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
	// mem is the memory pool of the plan that answered ids; itemsOnce
	// hands them back to it.
	mem *engine.MemPool

	items []Item
}

// valueChunk bounds the bytes Items copies values into at once: a value the
// caller keeps holds at most one chunk alive (or itself, when it is longer).
const valueChunk = 4 << 10

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
//
// Values are copied into chunks of at most valueChunk bytes, each sized from
// the rows still to come (a one-row answer allocates exactly its value), and
// every Value is a view into its chunk: an answer costs one allocation per
// chunk, not one per row.
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
	var chunk []byte
	err := r.sp.st.ContentBytes(r.ids, func(i int, content []byte) {
		n := len(content)
		if n == 0 {
			return
		}
		if n > cap(chunk)-len(chunk) {
			chunk = make([]byte, 0, max(n, min(valueChunk, n*(len(r.ids)-i))))
		}
		chunk = append(chunk, content...)
		out[i].Value = unsafe.String(&chunk[len(chunk)-n], n)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// itemsOnce is Items for an entry point that returns only the items, so
// that nothing reads the Rows again: it then hands the answer's ids back to
// the pool of the plan that produced them. QueryRows never calls it, because
// its caller owns the Rows.
func (r Rows) itemsOnce() ([]Item, error) {
	out, err := r.Items()
	r.mem.PutColumn(r.ids)
	return out, err
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
