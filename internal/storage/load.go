package storage

import (
	"fmt"

	"colorfulxml/internal/btree"
	"colorfulxml/internal/core"
)

// Load bulk-loads a logical MCT database into a physical store: element
// records are written once per element (in first-color document order),
// structural records per (element, color) in pre-order — so tag-index
// postings come out sorted by start position, as the structural join
// algorithms require.
//
// The int argument is ignored; it is kept only for the nested bench module's
// callers, and goes with ROADMAP item 6.
func Load(db *core.Database, _ int) (*Store, error) {
	s := NewStore(db.Colors()...)
	type rec struct {
		node      *core.Node
		parentTag string
		sn        SNode
	}
	for _, c := range db.Colors() {
		ctr := int64(gap)
		// First pass: compute intervals in pre-order (records are written in
		// pre-order afterwards so index postings come out start-sorted; End
		// is only known after the recursion).
		var recs []rec
		var walk func(n *core.Node, level int32, parentStart int64)
		walk = func(n *core.Node, level int32, parentStart int64) {
			for _, ch := range core.Children(n, c) {
				if ch.Kind() != core.KindElement {
					continue // text is the owning element's content
				}
				idx := len(recs)
				start := ctr
				ctr += gap
				recs = append(recs, rec{node: ch, parentTag: n.Name(), sn: SNode{
					Elem:        ElemID(ch.ID()),
					Color:       c,
					Start:       start,
					Level:       level,
					ParentStart: parentStart,
				}})
				walk(ch, level+1, start)
				recs[idx].sn.End = ctr
				ctr += gap
			}
		}
		walk(db.Document(), 0, -1)
		for _, r := range recs {
			if err := s.ensureElem(r.node); err != nil {
				return nil, err
			}
			if err := s.insertStruct(r.node.Name(), core.Text(r.node), r.parentTag, r.sn); err != nil {
				return nil, err
			}
		}
	}
	// Count text nodes for Table 1's content-node accounting.
	return s, nil
}

// ensureElem writes the element record on first encounter.
func (s *Store) ensureElem(n *core.Node) error {
	id := ElemID(n.ID())
	if _, ok := s.elemRID(id); ok {
		return nil
	}
	var attrs [][2]string
	for _, a := range n.Attributes() {
		attrs = append(attrs, [2]string{a.Name(), a.Value()})
	}
	return s.putElem(id, n.Name(), core.Text(n), attrs)
}

// putElem writes the record of an element the store does not hold yet and
// registers it: location, id cursor, counts, attribute index.
func (s *Store) putElem(id ElemID, tag, content string, attrs [][2]string) error {
	if err := checkElemID(id); err != nil {
		return err
	}
	rid, err := s.pages.AppendRecord(s.elemFile, encodeElem(id, tag, content, attrs))
	if err != nil {
		return err
	}
	s.elemLoc.Set(uint64(id), packRID(rid))
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.counts.Elements++
	s.counts.Attributes += len(attrs)
	if content != "" {
		s.counts.ContentNodes++
	}
	for _, a := range attrs {
		s.attrIdx.Insert(attrKey(a[0], a[1]), uint64(id))
	}
	return nil
}

// insertStruct writes a structural record and registers it in the
// directories and indexes. parentTag is the tag of the node's parent, "" for
// a child of the document.
func (s *Store) insertStruct(tag, content, parentTag string, sn SNode) error {
	t := s.tree(sn.Color)
	if t == nil {
		return fmt.Errorf("storage: unknown color %q", sn.Color)
	}
	rid, err := s.pages.AppendRecord(t.file, encodeStruct(sn))
	if err != nil {
		return err
	}
	ref := packRID(rid)
	t.loc.Set(uint64(sn.Elem), ref)
	t.addInner(parentTag, 1)
	// A new structural node may introduce a new root-anchored label path.
	s.invalidatePathSummaries()
	if err := s.insertPosting(s.tagIdx, tagKey(sn.Color, tag), ref, sn); err != nil {
		return err
	}
	if content != "" {
		if err := s.insertPosting(s.contentIdx, contentKey(sn.Color, tag, content), ref, sn); err != nil {
			return err
		}
	}
	t.start.Put(sn.Start, ref)
	s.counts.StructNodes++
	return nil
}

// insertPosting adds a structural node's ref to a tag or content posting
// list at its start-order position, which is what keeps the lists in local
// document order under updates: scans emit them as they are, and
// AppendWithin seeks them. The node's record must already be registered in
// the color's location table. A bulk load or an append costs one record read
// (the new record is the file's last, and the node starts after the list's
// last); an insert into the middle of the tree reads log n.
func (s *Store) insertPosting(idx *btree.Tree, key string, ref uint64, sn SNode) error {
	at, err := s.seekStart(idx.Get(key), sn)
	if err != nil {
		return err
	}
	idx.InsertAt(key, at, ref)
	return nil
}
