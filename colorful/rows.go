package colorful

import (
	"cmp"
	"fmt"
	"unsafe"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// Rows is a query's result before anyone reads it. For a compiled plan whose
// output is a leaf of the data it is the plan's answer as element references
// into the snapshot that produced them, and values are read from that
// snapshot's element records when asked for. For any other compiled output it
// holds items built from that snapshot (snapshot.items); on the evaluator and
// constructor routes, the route's items.
//
// A Rows pins its snapshot generation: whatever writers commit, and after
// the session or the DB closes, it yields the values of the generation it
// was answered from. It holds no lock. Close is optional: it hands the
// answer's id buffer back for the plan's next execution.
type Rows struct {
	sp    *snapshot
	ids   []storage.ElemID
	color Color
	// mem is the memory pool of the plan that answered ids; Close hands
	// them back to it.
	mem *engine.MemPool

	items []Item
}

// valueChunk bounds the bytes a subtree answer's string values are copied
// into at once: a value the caller keeps holds at most one chunk alive (or
// itself, when it is longer).
const valueChunk = 4 << 10

// missing reports an element of the snapshot's store, or an attribute in its
// record, that the tables of its generation have no node for.
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
// Every Value is a view of its element record in the snapshot's page, with
// no copy (view): an answer allocates its []Item and nothing per row.
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
	err := r.sp.st.ContentBytes(r.ids, func(i int, content []byte) { out[i].Value = view(content) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// view is a record's bytes as a string, with no copy: DB.publish froze the
// snapshot's store, so no later write changes them. A kept view holds its
// 8 KiB page image (or patch) alive; strings.Clone keeps just the bytes.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// chunks is where a subtree answer's string values, concatenations with no
// one record to view, are copied to: byte chunks of at most valueChunk bytes
// (or one value, when it is longer), each sized from the rows still to come.
type chunks []byte

// add copies v into the current chunk, or a new one when it does not fit,
// and returns a view of the copy.
func (ch *chunks) add(v []byte, rowsLeft int) string {
	n := len(v)
	if n == 0 {
		return ""
	}
	if n > cap(*ch)-len(*ch) {
		*ch = make([]byte, 0, max(n, min(valueChunk, n*rowsLeft)))
	}
	*ch = append(*ch, v...)
	return unsafe.String(&(*ch)[len(*ch)-n], n)
}

// valuesRead says what of the snapshot the values of c's answer are read
// from: an attribute in the element record, the content record itself when
// the output tag has no child paths in its colour in the data c was compiled
// against, or else the records of the element's subtree.
func valuesRead(c *plan.Compiled) string {
	switch {
	case c.OutAttr != "":
		return "attribute"
	case c.OutLeaf:
		return "content"
	}
	return "subtree"
}

// items builds the items of an answer whose values are not its elements'
// content records: each row's attribute c.OutAttr (rows without it yield no
// item), or each row's string value in the output colour. Nodes and values
// come from the snapshot alone, so they are the generation's that produced
// ids, whatever writers commit meanwhile. An attribute value is a view of
// the element record (view); a string value is copied into chunks. A subtree
// with mixed content ends the answer with storage.ErrMixedContent.
func (sp *snapshot) items(ids []storage.ElemID, c *plan.Compiled) ([]Item, error) {
	color := c.Cols[c.OutCol].Color
	if c.OutAttr != "" {
		out := make([]Item, 0, len(ids))
		var bad error
		err := sp.st.AttrBytes(ids, c.OutAttr, func(i, pos int, value []byte) {
			attrs, _ := sp.attrs.Get(uint64(ids[i]))
			if attrs == nil || pos >= len(*attrs) {
				bad = sp.missing(ids[i])
				return
			}
			out = append(out, Item{Node: (*attrs)[pos], Color: color, Value: view(value)})
		})
		return out, cmp.Or(err, bad)
	}
	out := make([]Item, len(ids))
	var ch chunks
	var bad error
	err := sp.st.StringValues(ids, color, func(i int, value []byte) {
		n, ok := sp.nodes.Get(uint64(ids[i]))
		if !ok {
			bad = cmp.Or(bad, sp.missing(ids[i]))
			return
		}
		out[i] = Item{Node: n, Color: color, Value: ch.add(value, len(ids)-i)}
	})
	if err = cmp.Or(err, bad); err != nil {
		return nil, err
	}
	return out, nil
}

// Close hands the answer's id buffer back to the pool of the plan that
// produced it, for the plan's next execution to append into. It is
// optional: an unclosed Rows leaves its buffer to the GC. The Rows must not
// be read after Close, nor closed twice; what Items returned stays valid.
func (r Rows) Close() { r.mem.PutColumn(r.ids) }

// itemsOnce is Items for an entry point that returns only the items, so
// that nothing reads the Rows again and it can Close them. QueryRows never
// calls it, because its caller owns the Rows.
func (r Rows) itemsOnce() ([]Item, error) {
	defer r.Close()
	return r.Items()
}

// Each visits rows i to j-1 in order with the node's id (0 for an atomic
// value), its colour and its value, building no Item and no string. The
// value bytes must not be modified. They never change, so a visitor may keep
// them: on the snapshot route they are the element record in its frozen page
// (view), elsewhere the item's value. A value that cannot be read ends the
// visit with the error.
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
