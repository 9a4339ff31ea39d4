package storage

import (
	"fmt"
	"math"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pagestore"
)

// This file implements the store-level update operations: content and
// attribute replacement, insertion of a last child, and subtree deletion.
// Where an insertion finds its place in the interval numbering is number.go.

// UpdateContent replaces an element's text content in place (appending a
// relocated record when the new content is larger).
func (s *Store) UpdateContent(id ElemID, content string) error {
	old, err := s.rewriteElem(id, func(e *ElemInfo) { e.Content = content })
	if err != nil {
		return err
	}
	// Re-key the content index for every colored structural node.
	for i := range s.trees {
		t := &s.trees[i]
		ref, ok := t.loc.Get(uint64(id))
		if !ok {
			continue
		}
		sn, err := s.StructByRef(ref, t.color)
		if err != nil {
			return err
		}
		texts := t.texts.write(old.Tag).m
		if old.Content != "" {
			texts.Delete(textKey(old.Content, uint64(sn.Start)))
		}
		if content != "" {
			texts.Put(textKey(content, uint64(sn.Start)), ref)
		}
	}
	if old.Content == "" && content != "" {
		s.counts.ContentNodes++
	}
	if old.Content != "" && content == "" {
		s.counts.ContentNodes--
	}
	return nil
}

// InsertLeafChild creates a new element with one structural node, as the
// last child of parent in parent's color (the color's document node, from
// Document, for a new root). The element id is allocated by the store.
func (s *Store) InsertLeafChild(parent SNode, tag, content string, attrs [][2]string) (SNode, error) {
	return s.InsertLeafChildID(s.nextID, parent, tag, content, attrs)
}

// InsertLeafChildID is InsertLeafChild with a caller-chosen element id, used
// by incremental snapshot maintenance where store element ids must equal
// logical core node ids.
func (s *Store) InsertLeafChildID(id ElemID, parent SNode, tag, content string, attrs [][2]string) (SNode, error) {
	if _, ok := s.elemRID(id); ok {
		return SNode{}, fmt.Errorf("storage: element %d already stored: %w", id, core.ErrAlreadyColored)
	}
	sn, parentTag, err := s.lastChildSlot(id, parent)
	if err != nil {
		return SNode{}, err
	}
	if err := s.putElem(id, tag, content, attrs); err != nil {
		return SNode{}, err
	}
	return sn, s.insertStruct(tag, content, parentTag, sn)
}

// AddColorTo attaches an existing element into another colored tree as the
// last child of parent (the physical counterpart of the next-color
// constructor).
func (s *Store) AddColorTo(id ElemID, parent SNode) (SNode, error) {
	if _, ok := s.structRef(id, parent.Color); ok {
		return SNode{}, fmt.Errorf("storage: element %d already in color %q: %w", id, parent.Color, core.ErrAlreadyColored)
	}
	e, err := s.Elem(id)
	if err != nil {
		return SNode{}, err
	}
	sn, parentTag, err := s.lastChildSlot(id, parent)
	if err != nil {
		return SNode{}, err
	}
	return sn, s.insertStruct(e.Tag, e.Content, parentTag, sn)
}

// rewriteElem writes element id's record anew as set edits it, over the old
// record where it fits and appended elsewhere where it does not, and returns
// the old record.
func (s *Store) rewriteElem(id ElemID, set func(e *ElemInfo)) (old ElemInfo, err error) {
	rid, ok := s.elemRID(id)
	if !ok {
		return old, fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
	}
	buf, err := s.pages.ReadRecord(rid)
	if err != nil {
		return old, err
	}
	old.ID, old.Tag, old.Content, old.Attrs = decodeElem(buf)
	e := old
	set(&e)
	rec := encodeElem(id, e.Tag, e.Content, e.Attrs)
	if len(rec) <= len(buf) {
		return old, s.pages.OverwriteRecord(rid, rec)
	}
	newRID, err := s.pages.AppendRecord(s.elemFile, rec)
	if err == nil {
		err = s.pages.DeleteRecord(rid)
	}
	if err == nil {
		s.elemLoc.Set(uint64(id), packRID(newRID))
	}
	return old, err
}

// SetElemAttrs replaces an element's attribute list, re-keying the attribute
// index (the physical counterpart of attribute set/remove).
func (s *Store) SetElemAttrs(id ElemID, attrs [][2]string) error {
	old, err := s.rewriteElem(id, func(e *ElemInfo) { e.Attrs = attrs })
	if err != nil {
		return err
	}
	for _, a := range old.Attrs {
		s.attrs.write(a[0]).m.Delete(textKey(a[1], uint64(id)))
	}
	for _, a := range attrs {
		s.attrs.write(a[0]).m.Put(textKey(a[1], uint64(id)), uint64(id))
	}
	s.counts.Attributes += len(attrs) - len(old.Attrs)
	return nil
}

// DeleteSubtree removes sn and its descendants from sn's colored tree.
// Elements left with no structural node are removed entirely.
func (s *Store) DeleteSubtree(sn SNode) error {
	s.invalidatePathSummaries()
	desc, err := s.Subtree(sn)
	if err != nil {
		return err
	}
	nodes := append([]SNode{sn}, desc...)
	// Each removal is one child fewer under its parent's tag: the tag of the
	// removed node enclosing it, or for sn itself of its parent, which stays
	// (and, with an end past every start, stays open throughout the walk).
	t := s.tree(sn.Color)
	var open enclosing
	if p, ok, err := s.ParentOf(sn); err != nil {
		return err
	} else if ok {
		tag, err := s.tagOf(p.Elem)
		if err != nil {
			return err
		}
		open.enter(SNode{End: math.MaxInt64}, tag)
	}
	for _, d := range nodes {
		e, err := s.Elem(d.Elem)
		if err != nil {
			return err
		}
		t.addChildren(open.enter(d, e.Tag), -1)
		ref, _ := s.structRef(d.Elem, d.Color)
		if err := s.pages.DeleteRecord(unpackRID(ref)); err != nil {
			return err
		}
		t.index(e.Tag, e.Content, d.Start, ref, false)
		t.loc.Delete(uint64(d.Elem))
		s.counts.StructNodes--
		if len(s.ColorsOf(d.Elem)) == 0 {
			erid, _ := s.elemRID(d.Elem)
			if err := s.pages.DeleteRecord(erid); err != nil {
				return err
			}
			s.elemLoc.Delete(uint64(d.Elem))
			for _, a := range e.Attrs {
				s.attrs.write(a[0]).m.Delete(textKey(a[1], uint64(d.Elem)))
			}
			s.counts.Elements--
			s.counts.Attributes -= len(e.Attrs)
			if e.Content != "" {
				s.counts.ContentNodes--
			}
		}
	}
	return nil
}
