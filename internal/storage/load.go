package storage

import (
	"fmt"

	"colorfulxml/internal/core"
)

// Load bulk-loads a logical MCT database into a physical store: element
// records are written once per element (in first-color document order),
// structural records per (element, color) in pre-order, so every index map
// fills in key order.
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
	return s, nil
}

// ensureElem writes the element record on first encounter.
func (s *Store) ensureElem(n *core.Node) error {
	id := ElemID(n.ID())
	if _, ok := s.elemRID(id); ok {
		return nil
	}
	return s.putElem(id, n.Name(), core.Text(n), core.AttrPairs(n))
}

// putElem writes the record of an element the store does not hold yet and
// registers it.
func (s *Store) putElem(id ElemID, tag, content string, attrs [][2]string) error {
	if err := checkElemID(id); err != nil {
		return err
	}
	rid, err := s.pages.AppendRecord(s.elemFile, encodeElem(id, tag, content, attrs))
	if err != nil {
		return err
	}
	s.registerElem(id, packRID(rid), content, attrs)
	return nil
}

// registerElem registers a written element record: location, id cursor,
// counts, attribute index.
func (s *Store) registerElem(id ElemID, ref uint64, content string, attrs [][2]string) {
	s.elemLoc.Set(uint64(id), ref)
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.counts.Elements++
	s.counts.Attributes += len(attrs)
	if content != "" {
		s.counts.ContentNodes++
	}
	for _, a := range attrs {
		s.attrs.write(a[0]).m.Put(textKey(a[1], uint64(id)), uint64(id))
	}
}

// insertStruct writes a structural record and registers it. parentTag is the
// tag of the node's parent, "" for a child of the document.
func (s *Store) insertStruct(tag, content, parentTag string, sn SNode) error {
	t := s.tree(sn.Color)
	if t == nil {
		return fmt.Errorf("storage: unknown color %q", sn.Color)
	}
	rid, err := s.pages.AppendRecord(t.file, encodeStruct(sn))
	if err == nil {
		s.registerStruct(t, tag, content, parentTag, sn, packRID(rid))
	}
	return err
}

// registerStruct registers a written structural record of t's colour in the
// directories and indexes: location, the parent tag's child count, the
// start, tag and content maps, counts.
func (s *Store) registerStruct(t *colorTree, tag, content, parentTag string, sn SNode, ref uint64) {
	t.loc.Set(uint64(sn.Elem), ref)
	t.addChildren(parentTag, 1)
	// A new structural node may introduce a new root-anchored label path.
	s.invalidatePathSummaries()
	t.index(tag, content, sn.Start, ref, true)
	s.counts.StructNodes++
}
