package storage

import (
	"fmt"
	"math"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pagestore"
)

// This file implements the store-level update operations the experiment
// workloads need: content replacement, leaf insertion, and subtree deletion.
// Insertions allocate start positions inside the interval gaps left by bulk
// loading; when a parent's gap is exhausted the colored tree is renumbered.

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
// last child of parent in parent's color. The element id is allocated by the
// store.
func (s *Store) InsertLeafChild(parent SNode, tag, content string, attrs [][2]string) (SNode, error) {
	id := s.nextID
	s.nextID++
	return s.insertLeafChild(id, parent, tag, content, attrs)
}

// InsertLeafChildID is InsertLeafChild with a caller-chosen element id, used
// by incremental snapshot maintenance where store element ids must equal
// logical core node ids.
func (s *Store) InsertLeafChildID(id ElemID, parent SNode, tag, content string, attrs [][2]string) (SNode, error) {
	if err := s.claimID(id); err != nil {
		return SNode{}, err
	}
	return s.insertLeafChild(id, parent, tag, content, attrs)
}

// claimID admits a caller-chosen id for a new element and moves the id
// cursor past it.
func (s *Store) claimID(id ElemID) error {
	if _, ok := s.elemRID(id); ok {
		return fmt.Errorf("storage: element %d already stored: %w", id, core.ErrAlreadyColored)
	}
	if err := checkElemID(id); err != nil {
		return err
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	return nil
}

func (s *Store) insertLeafChild(id ElemID, parent SNode, tag, content string, attrs [][2]string) (SNode, error) {
	parentTag, err := s.tagOf(parent.Elem)
	if err != nil {
		return SNode{}, err
	}
	for attempt := 0; ; attempt++ {
		sn, ok, err := s.tryInsertLeaf(id, parent, parentTag, tag, content, attrs)
		if err != nil {
			return SNode{}, err
		}
		if ok {
			return sn, nil
		}
		if attempt > 0 {
			return SNode{}, fmt.Errorf("storage: no interval space after renumbering %q", parent.Color)
		}
		newParent, err := s.renumber(parent.Color, parent)
		if err != nil {
			return SNode{}, err
		}
		parent = newParent
	}
}

func (s *Store) tryInsertLeaf(id ElemID, parent SNode, parentTag, tag, content string, attrs [][2]string) (SNode, bool, error) {
	desc, err := s.Subtree(parent)
	if err != nil {
		return SNode{}, false, err
	}
	lo := parent.Start
	for _, d := range desc {
		if d.End > lo {
			lo = d.End
		}
	}
	start := lo + 1
	end := start + 1
	if end >= parent.End {
		return SNode{}, false, nil // no gap left
	}
	rid, err := s.pages.AppendRecord(s.elemFile, encodeElem(id, tag, content, attrs))
	if err != nil {
		return SNode{}, false, err
	}
	s.elemLoc.Set(uint64(id), packRID(rid))
	s.counts.Elements++
	s.counts.Attributes += len(attrs)
	if content != "" {
		s.counts.ContentNodes++
	}
	for _, a := range attrs {
		s.attrIdx.Insert(attrKey(a[0], a[1]), uint64(id))
	}
	sn := SNode{
		Elem:        id,
		Color:       parent.Color,
		Start:       start,
		End:         end,
		Level:       parent.Level + 1,
		ParentStart: parent.Start,
	}
	if err := s.insertStruct(tag, content, parentTag, sn); err != nil {
		return SNode{}, false, err
	}
	return sn, true, nil
}

// rootSlot allocates an interval for a new last root (child of the document)
// in color c. Root positions are unbounded above, so no renumbering is ever
// needed.
func (s *Store) rootSlot(t *colorTree) (start, end int64) {
	start = max(t.maxStart, gap)
	end = start + 1
	t.maxStart = end + gap
	return start, end
}

// InsertLeafRootID creates a new element with a caller-chosen id as the last
// root of colored tree c (a child of the document node).
func (s *Store) InsertLeafRootID(id ElemID, c core.Color, tag, content string, attrs [][2]string) (SNode, error) {
	t := s.tree(c)
	if t == nil {
		return SNode{}, fmt.Errorf("storage: unknown color %q", c)
	}
	if err := s.claimID(id); err != nil {
		return SNode{}, err
	}
	rid, err := s.pages.AppendRecord(s.elemFile, encodeElem(id, tag, content, attrs))
	if err != nil {
		return SNode{}, err
	}
	s.elemLoc.Set(uint64(id), packRID(rid))
	s.counts.Elements++
	s.counts.Attributes += len(attrs)
	if content != "" {
		s.counts.ContentNodes++
	}
	for _, a := range attrs {
		s.attrIdx.Insert(attrKey(a[0], a[1]), uint64(id))
	}
	start, end := s.rootSlot(t)
	sn := SNode{Elem: id, Color: c, Start: start, End: end, Level: 0, ParentStart: -1}
	if err := s.insertStruct(tag, content, "", sn); err != nil {
		return SNode{}, err
	}
	return sn, nil
}

// AddColorRoot attaches an existing element into colored tree c as its last
// root (the next-color constructor with the document as parent).
func (s *Store) AddColorRoot(id ElemID, c core.Color) (SNode, error) {
	t := s.tree(c)
	if t == nil {
		return SNode{}, fmt.Errorf("storage: unknown color %q", c)
	}
	if _, ok := t.loc.Get(uint64(id)); ok {
		return SNode{}, fmt.Errorf("storage: element %d already in color %q: %w", id, c, core.ErrAlreadyColored)
	}
	e, err := s.Elem(id)
	if err != nil {
		return SNode{}, err
	}
	start, end := s.rootSlot(t)
	sn := SNode{Elem: id, Color: c, Start: start, End: end, Level: 0, ParentStart: -1}
	if err := s.insertStruct(e.Tag, e.Content, "", sn); err != nil {
		return SNode{}, err
	}
	return sn, nil
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
	parentTag, err := s.tagOf(parent.Elem)
	if err != nil {
		return SNode{}, err
	}
	for attempt := 0; ; attempt++ {
		desc, err := s.Subtree(parent)
		if err != nil {
			return SNode{}, err
		}
		lo := parent.Start
		for _, d := range desc {
			if d.End > lo {
				lo = d.End
			}
		}
		start := lo + 1
		end := start + 1
		if end < parent.End {
			sn := SNode{
				Elem:        id,
				Color:       parent.Color,
				Start:       start,
				End:         end,
				Level:       parent.Level + 1,
				ParentStart: parent.Start,
			}
			if err := s.insertStruct(e.Tag, e.Content, parentTag, sn); err != nil {
				return SNode{}, err
			}
			return sn, nil
		}
		if attempt > 0 {
			return SNode{}, fmt.Errorf("storage: no interval space after renumbering %q", parent.Color)
		}
		parent, err = s.renumber(parent.Color, parent)
		if err != nil {
			return SNode{}, err
		}
	}
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
		s.startIdx.DeleteKey(startKey(d.Color, d.Start))
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

// renumber reassigns interval positions of an entire colored tree with fresh
// gaps, preserving pre-order. It returns the renumbered image of track (so
// in-flight callers can continue with a valid handle).
func (s *Store) renumber(c core.Color, track SNode) (SNode, error) {
	// Label paths survive renumbering, but cached summary refs point at
	// rewritten records whose start order is rebuilt; drop the cache.
	s.invalidatePathSummaries()
	// Collect all structural nodes of the color in start order.
	type item struct {
		sn  SNode
		rid pagestore.RecordID
	}
	var items []item
	var scanErr error
	s.startIdx.Prefix(string(c)+"|", func(_ string, refs []uint64) bool {
		for _, ref := range refs {
			rid := unpackRID(ref)
			buf, err := s.pages.ReadRecord(rid)
			if err != nil {
				scanErr = err
				return false
			}
			items = append(items, item{sn: decodeStruct(buf, c), rid: rid})
		}
		return true
	})
	if scanErr != nil {
		return SNode{}, scanErr
	}
	// Recompute pre-order intervals with a stack over the OLD interval
	// bounds (items arrive in old start order, which is pre-order).
	newStart := map[int64]int64{-1: -1}
	var out SNode
	found := false
	type renum struct {
		oldStart, oldEnd int64
		idx              int
	}
	olds := make([]renum, len(items))
	for i, it := range items {
		olds[i] = renum{oldStart: it.sn.Start, oldEnd: it.sn.End, idx: i}
	}
	ctr := int64(gap)
	var open []renum
	closeOne := func() {
		top := open[len(open)-1]
		open = open[:len(open)-1]
		items[top.idx].sn.End = ctr
		ctr += gap
	}
	for i := range items {
		for len(open) > 0 && open[len(open)-1].oldEnd < olds[i].oldStart {
			closeOne()
		}
		oldParent := items[i].sn.ParentStart
		items[i].sn.Start = ctr
		newStart[olds[i].oldStart] = ctr
		ctr += gap
		if ns, ok := newStart[oldParent]; ok {
			items[i].sn.ParentStart = ns
		}
		open = append(open, olds[i])
	}
	for len(open) > 0 {
		closeOne()
	}
	// Rewrite records and rebuild the start index for this color.
	var keys []string
	s.startIdx.Prefix(string(c)+"|", func(k string, _ []uint64) bool {
		keys = append(keys, k)
		return true
	})
	for _, k := range keys {
		s.startIdx.DeleteKey(k)
	}
	for _, it := range items {
		if err := s.pages.OverwriteRecord(it.rid, encodeStruct(it.sn)); err != nil {
			return SNode{}, err
		}
		s.startIdx.Insert(startKey(c, it.sn.Start), packRID(it.rid))
		if it.sn.Elem == track.Elem && track.Color == c {
			out = it.sn
			found = true
		}
	}
	s.tree(c).maxStart = ctr
	if !found {
		return SNode{}, fmt.Errorf("storage: renumber lost track of element %d", track.Elem)
	}
	return out, nil
}
