package storage

import (
	"cmp"
	"maps"
	"math"
	"unsafe"

	"colorfulxml/internal/btree"
)

// The tag, content and attribute-value indexes (paper Section 7) are maps
// keyed by the order each keeps, so an insert or a delete path-copies a few
// nodes of one tag's map and reads no record, and a scan hands out a map's
// leaves as they are:
//
//   - tag: per color and tag, start -> structural ref (colorTree.tags);
//   - content: per color and tag, content -> structural ref, by start
//     (colorTree.texts);
//   - attribute value: per attribute name, value -> element id, by element
//     id (Store.attrs).
//
// A content or attribute-value map is keyed by the text itself, the string
// the store was handed (so shared with the database it came from), and holds
// one value per text: a text one node holds has that node's ref inline, and
// a text several hold a run, a map of their refs by n (a start, an element
// id). When a second node takes a text, the first one's n is read from its
// record: the one record an index write reads.

// postingMaps is a copy-on-write set of index maps, one per name. A Clone
// shares the set and every map in it; the first write to a name after that
// gives it a clone of its maps (O(1)) and, once per set, copies the set's
// table of a few names.
type postingMaps[K cmp.Ordered] struct {
	maps   map[string]*posting[K]
	own    *byte // a posting or run that carries another token is shared with a clone
	shared bool  // the table itself is shared with a clone
}

type posting[K cmp.Ordered] struct {
	own *byte
	// m is a tag's map, start -> ref; in a content or attribute-value
	// map, the texts one node holds, each with that node's ref.
	m btree.Map[K, uint64]
	// runs holds, in a content or attribute-value map, the texts several
	// nodes hold, each with their run.
	runs btree.Map[K, *run]
	// children counts, in a color's tag index, the structural nodes whose
	// parent carries the tag: the one DataGuide fact kept current under
	// every update (LeafTag).
	children int
}

// run is the refs of the nodes that hold one text, by n: read as a tag's map
// is. A posting writes in place only the runs that carry its token.
type run struct {
	own *byte
	m   btree.Map[int64, uint64]
}

// clone returns a copy-on-write sibling of the set. The receiver must not
// be written concurrently.
func (p *postingMaps[K]) clone() postingMaps[K] {
	p.own, p.shared = new(byte), true
	return postingMaps[K]{maps: p.maps, own: new(byte), shared: true}
}

// get returns name's map for reading (empty when there is none).
func (p *postingMaps[K]) get(name string) *btree.Map[K, uint64] {
	if e := p.maps[name]; e != nil {
		return &e.m
	}
	return &btree.Map[K, uint64]{}
}

// write returns name's posting for writing, added when absent.
func (p *postingMaps[K]) write(name string) *posting[K] {
	if p.own == nil {
		p.own = new(byte)
	}
	e := p.maps[name]
	if e != nil && e.own == p.own {
		return e
	}
	if p.shared || p.maps == nil {
		p.maps, p.shared = maps.Clone(p.maps), false
		if p.maps == nil {
			p.maps = map[string]*posting[K]{}
		}
	}
	own := &posting[K]{own: p.own}
	if e != nil {
		own.m, own.children = *e.m.Clone(), e.children
		if e.runs.Len() > 0 {
			own.runs = *e.runs.Clone()
		}
	}
	p.maps[name] = own
	return own
}

// bytes counts the maps, the runs and the run maps; not the texts that key
// them, which are the data's.
func (p *postingMaps[K]) bytes() (n int64) {
	for _, e := range p.maps {
		n += e.m.Bytes() + e.runs.Bytes()
		e.runs.Ascend(func(_ K, r *run) bool {
			n += int64(unsafe.Sizeof(*r)) + r.m.Bytes() // 32 bytes, a size class
			return true
		})
	}
	return n
}

// lookup returns text's refs in e, a content or attribute-value posting
// (nil: none): the one ref of a text one node holds, as a slice of the map's
// leaf, or the run of a text several hold; and text as e holds it, which
// moves with it between the two maps.
func lookup(e *posting[string], text string) (key string, one []uint64, r *run) {
	if e == nil {
		return "", nil, nil
	}
	e.m.Leaves(text, func(keys []string, refs []uint64) bool {
		if keys[0] == text {
			key, one = keys[0], refs[:1:1]
		}
		return false
	})
	if one == nil {
		e.runs.Leaves(text, func(keys []string, runs []*run) bool {
			if keys[0] == text {
				key, r = keys[0], runs[0]
			}
			return false
		})
	}
	return key, one, r
}

// ownRun returns text's run r for writing: r, or a clone of it that e puts
// in its place when r is shared with a clone.
func ownRun(e *posting[string], text string, r *run) *run {
	if r.own != e.own {
		r = &run{own: e.own, m: *r.m.Clone()}
		e.runs.Put(text, r)
	}
	return r
}

// putText adds the node (n, ref) to text's postings in e, which the caller
// writes. When one node held text, nOf reads its n from its ref.
func putText(e *posting[string], text string, n int64, ref uint64, nOf func(ref uint64) (int64, error)) error {
	key, one, r := lookup(e, text)
	switch {
	case r != nil:
		ownRun(e, key, r).m.Put(n, ref)
	case one == nil:
		e.m.Put(text, ref)
	default:
		had := one[0]
		hadN, err := nOf(had)
		if err != nil {
			return err
		}
		r := &run{own: e.own}
		r.m.Put(hadN, had)
		r.m.Put(n, ref)
		e.m.Delete(key)
		e.runs.Put(key, r)
	}
	return nil
}

// deleteText removes the node n from text's postings in e, which the caller
// writes. A run left with one node gives way to that node's ref.
func deleteText(e *posting[string], text string, n int64) {
	key, one, r := lookup(e, text)
	switch {
	case one != nil:
		e.m.Delete(key)
	case r != nil:
		r = ownRun(e, key, r)
		r.m.Delete(n)
		if r.m.Len() > 1 {
			return
		}
		e.runs.Delete(key)
		r.m.Ascend(func(_ int64, ref uint64) bool {
			e.m.Put(key, ref)
			return false
		})
	}
}

// Postings is a start-ordered run of one index, read a leaf at a time: a
// tag's structural refs in a color (TagPostings), or those of its nodes with
// one content (ContentPostings) or of the elements with one attribute value
// (EqAttr) — or a short content run read already (RunPostings). The zero
// Postings is empty.
type Postings struct {
	tag  *btree.Map[int64, uint64]
	few  []uint64 // a run's refs read already, or a text's one ref, to hand out
	text *posting[string]
	// key is a content run's value until it is looked up, which turns it
	// into its one ref (few) or its run, read as a tag's map; from is a tag
	// map's next start, and runOver once the run is known to be over.
	key  string
	from int64
}

const runOver = math.MaxInt64

// Next hands take the run's next refs in order, at most a leaf of the index
// at a time and never a copy, until take accepts fewer than it is given —
// the rest come first on the next call — or the run ends. The refs are valid
// only during the call.
func (p *Postings) Next(take func(refs []uint64) int) {
	if p.text != nil {
		var r *run
		_, p.few, r = lookup(p.text, p.key)
		if p.text = nil; r != nil {
			p.tag, p.from = &r.m, math.MinInt64
		}
	}
	ended := true
	switch {
	case p.from == runOver:
	case p.few != nil:
		n := take(p.few)
		p.few = p.few[n:]
		ended = len(p.few) == 0
	case p.tag != nil:
		p.tag.Leaves(p.from, func(keys []int64, refs []uint64) bool {
			n := take(refs)
			if n > 0 {
				p.from = keys[n-1] + 1
			}
			ended = n == len(refs)
			return ended
		})
	}
	if ended {
		p.from = runOver
	}
}

// index adds the structural node at start, with its tag, content and record
// ref, to t's start, tag and content maps.
func (s *Store) index(t *colorTree, tag, content string, start int64, ref uint64) error {
	t.place(tag, start, ref, true)
	if content == "" {
		return nil
	}
	return s.putContent(t, tag, content, start, ref)
}

// unindex removes the structural node at start from t's start, tag and
// content maps.
func (t *colorTree) unindex(tag, content string, start int64) {
	t.place(tag, start, 0, false)
	if content != "" {
		deleteText(t.texts.write(tag), content, start)
	}
}

// place adds the structural node at start to t's start and tag maps, or with
// add false removes it.
func (t *colorTree) place(tag string, start int64, ref uint64, add bool) {
	if tags := &t.tags.write(tag).m; add {
		t.start.Put(start, ref)
		tags.Put(start, ref)
	} else {
		t.start.Delete(start)
		tags.Delete(start)
	}
}

// putContent adds the structural node at start, with its record ref, to the
// postings of content in t's content map of tag.
func (s *Store) putContent(t *colorTree, tag, content string, start int64, ref uint64) error {
	return putText(t.texts.write(tag), content, start, ref, func(ref uint64) (int64, error) {
		sn, err := s.StructByRef(ref, t.color)
		return sn.Start, err
	})
}

// putAttr and deleteAttr add and remove element id's attribute (name,
// value) in the attribute-value index, whose refs are the element ids.
func (s *Store) putAttr(name, value string, id ElemID) {
	_ = putText(s.attrs.write(name), value, int64(id), uint64(id), func(ref uint64) (int64, error) { return int64(ref), nil })
}

func (s *Store) deleteAttr(name, value string, id ElemID) {
	deleteText(s.attrs.write(name), value, int64(id))
}

// addChildren records that d structural nodes (negative: fewer) hang under
// a node tagged parentTag; the document's children have no parent tag.
func (t *colorTree) addChildren(parentTag string, d int) {
	if parentTag != "" {
		t.tags.write(parentTag).children += d
	}
}
