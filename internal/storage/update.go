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
	rid, ok := s.elemRID(id)
	if !ok {
		return fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
	}
	old, err := s.pages.ReadRecord(rid)
	if err != nil {
		return err
	}
	_, tag, oldContent, attrs := decodeElem(old)
	rec := encodeElem(id, tag, content, attrs)
	if len(rec) <= len(old) {
		if err := s.pages.OverwriteRecord(rid, rec); err != nil {
			return err
		}
	} else {
		newRID, err := s.pages.AppendRecord(s.elemFile, rec)
		if err != nil {
			return err
		}
		if err := s.pages.DeleteRecord(rid); err != nil {
			return err
		}
		s.elemLoc.Set(uint64(id), packRID(newRID))
	}
	// Re-key the content index for every colored structural node.
	for _, t := range s.trees {
		c := t.color
		ref, ok := t.loc.Get(uint64(id))
		if !ok {
			continue
		}
		if oldContent != "" {
			s.contentIdx.Delete(contentKey(c, tag, oldContent), ref)
		}
		if content != "" {
			sn, err := s.readStructRef(ref, c)
			if err != nil {
				return err
			}
			if err := s.insertPosting(s.contentIdx, contentKey(c, tag, content), ref, sn); err != nil {
				return err
			}
		}
	}
	if oldContent == "" && content != "" {
		s.counts.ContentNodes++
	}
	if oldContent != "" && content == "" {
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

// SetElemAttrs replaces an element's attribute list, re-keying the attribute
// index (the physical counterpart of attribute set/remove).
func (s *Store) SetElemAttrs(id ElemID, attrs [][2]string) error {
	rid, ok := s.elemRID(id)
	if !ok {
		return fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
	}
	old, err := s.pages.ReadRecord(rid)
	if err != nil {
		return err
	}
	_, tag, content, oldAttrs := decodeElem(old)
	rec := encodeElem(id, tag, content, attrs)
	if len(rec) <= len(old) {
		if err := s.pages.OverwriteRecord(rid, rec); err != nil {
			return err
		}
	} else {
		newRID, err := s.pages.AppendRecord(s.elemFile, rec)
		if err != nil {
			return err
		}
		if err := s.pages.DeleteRecord(rid); err != nil {
			return err
		}
		s.elemLoc.Set(uint64(id), packRID(newRID))
	}
	for _, a := range oldAttrs {
		s.attrIdx.Delete(attrKey(a[0], a[1]), uint64(id))
	}
	for _, a := range attrs {
		s.attrIdx.Insert(attrKey(a[0], a[1]), uint64(id))
	}
	s.counts.Attributes += len(attrs) - len(oldAttrs)
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
		t.addInner(open.enter(d, e.Tag), -1)
		ref, _ := s.structRef(d.Elem, d.Color)
		if err := s.pages.DeleteRecord(unpackRID(ref)); err != nil {
			return err
		}
		s.tagIdx.Delete(tagKey(d.Color, e.Tag), ref)
		if e.Content != "" {
			s.contentIdx.Delete(contentKey(d.Color, e.Tag, e.Content), ref)
		}
		t.start.Delete(d.Start)
		t.loc.Delete(uint64(d.Elem))
		s.counts.StructNodes--
		if len(s.ColorsOf(d.Elem)) == 0 {
			erid, _ := s.elemRID(d.Elem)
			if err := s.pages.DeleteRecord(erid); err != nil {
				return err
			}
			s.elemLoc.Delete(uint64(d.Elem))
			for _, a := range e.Attrs {
				s.attrIdx.Delete(attrKey(a[0], a[1]), uint64(d.Elem))
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
