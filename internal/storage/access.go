package storage

import (
	"errors"
	"fmt"
	"sort"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pagestore"
)

// StructByRef reads one structural record of color c, decoded in place in
// its page, from its packed ref (as TagRefs and ContentRefs give them).
func (s *Store) StructByRef(ref uint64, c core.Color) (sn SNode, err error) {
	err = s.pages.ViewRecord(unpackRID(ref), func(rec []byte) { sn = decodeStruct(rec, c) })
	return sn, err
}

// viewElem calls fn with element id's record, in its page.
func (s *Store) viewElem(id ElemID, fn func(rec []byte)) error {
	rid, ok := s.elemRID(id)
	if !ok {
		return fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
	}
	return s.pages.ViewRecord(rid, fn)
}

// viewRefs calls visit with base plus i and the record at refs[i], in order.
// A page is held across the consecutive refs that lie on it — posting lists
// are in start order and a bulk load writes records in that order, so a scan
// costs one page lookup per page, not per record. rec is valid only during
// the call.
func (s *Store) viewRefs(refs []uint64, base int, visit func(i int, rec []byte)) error {
	i := 0
	for i < len(refs) {
		page := unpackRID(refs[i]).PageID
		var recErr error
		err := s.pages.ViewPage(page, func(p *pagestore.Page) {
			for ; i < len(refs); i++ {
				rid := unpackRID(refs[i])
				if rid.PageID != page {
					return
				}
				rec, err := p.Record(rid.Slot)
				if err != nil {
					recErr = err
					return
				}
				visit(base+i, rec)
			}
		})
		if err == nil {
			err = recErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// StructsByRef resolves the packed structural record refs of one color
// (TagRefs, ContentRefs, a path summary's) into dst, which must be as long as
// refs, reading page by page.
func (s *Store) StructsByRef(dst []SNode, refs []uint64, c core.Color) error {
	return s.viewRefs(refs, 0, func(i int, rec []byte) { dst[i] = decodeStruct(rec, c) })
}

// TagRefs returns the tag index posting list for (c, tag) without reading
// any records: packed structural record refs in start order. Callers resolve
// individual refs with StructByRef, which lets iterators stream one record at
// a time instead of materializing the whole scan.
func (s *Store) TagRefs(c core.Color, tag string) []uint64 {
	obsIndexProbes.Inc()
	return s.tagIdx.Get(tagKey(c, tag))
}

// ContentRefs returns the content index posting list for (c, tag, value)
// without reading any records (start order).
func (s *Store) ContentRefs(c core.Color, tag, value string) []uint64 {
	obsIndexProbes.Inc()
	return s.contentIdx.Get(contentKey(c, tag, value))
}

// ScanTag returns all structural nodes with the given tag in color c, in
// start (local document) order.
func (s *Store) ScanTag(c core.Color, tag string) ([]SNode, error) {
	refs := s.TagRefs(c, tag)
	out := make([]SNode, len(refs))
	return out, s.StructsByRef(out, refs, c)
}

// CountTag returns the number of structural nodes with a tag in color c
// without reading them (index-only).
func (s *Store) CountTag(c core.Color, tag string) int {
	return len(s.tagIdx.Get(tagKey(c, tag)))
}

// CountContent returns the number of structural nodes with a tag whose
// content equals value in color c without reading them (index-only), the
// equality-selectivity statistic of the plan compiler's cost model.
func (s *Store) CountContent(c core.Color, tag, value string) int {
	return len(s.contentIdx.Get(contentKey(c, tag, value)))
}

// ElemInfo is a decoded element record.
type ElemInfo struct {
	ID      ElemID
	Tag     string
	Content string
	Attrs   [][2]string
}

// Attr returns the named attribute's value, or "".
func (e ElemInfo) Attr(name string) string {
	for _, a := range e.Attrs {
		if a[0] == name {
			return a[1]
		}
	}
	return ""
}

// Elem reads an element record.
func (s *Store) Elem(id ElemID) (e ElemInfo, err error) {
	err = s.viewElem(id, func(rec []byte) { e.ID, e.Tag, e.Content, e.Attrs = decodeElem(rec) })
	return e, err
}

// TagIs reports whether element id carries the given tag. It compares the
// tag inside the element record's page: content and attributes are not
// decoded and nothing is allocated, which is what lets a navigational join
// tag-check every parent or ancestor it hops to.
func (s *Store) TagIs(id ElemID, tag string) (bool, error) {
	rid, ok := s.elemRID(id)
	if !ok {
		return false, fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
	}
	var is bool
	err := s.pages.ViewRecord(rid, func(rec []byte) { is = string(elemTag(rec)) == tag })
	return is, err
}

// LeafTag reports whether every element tagged tag is a leaf of colored tree
// c: none has an element child there, so the string value of each (paper
// Section 3.2: the text of its subtree in c) is its own content record.
func (s *Store) LeafTag(c core.Color, tag string) bool {
	t := s.tree(c)
	return t != nil && t.inner[tag] == 0
}

// tagOf reads an element's tag.
func (s *Store) tagOf(id ElemID) (tag string, err error) {
	err = s.viewElem(id, func(rec []byte) { tag = string(elemTag(rec)) })
	return tag, err
}

// ContentOf reads an element's text content, decoding nothing else of its
// record.
func (s *Store) ContentOf(id ElemID) (content string, err error) {
	err = s.viewElem(id, func(rec []byte) { content = string(elemContent(rec)) })
	return content, err
}

// ContentBytes hands visit the text content of each element of ids, in
// order, as the bytes of the element record in its page: valid only during
// the call, and never to be modified. It is ContentOf for a result column:
// content-only decode, page by page (elements created together sit
// together), nothing copied.
func (s *Store) ContentBytes(ids []ElemID, visit func(i int, content []byte)) error {
	return s.viewElems(ids, func(i int, rec []byte) { visit(i, elemContent(rec)) })
}

// AttrBytes is ContentBytes for an attribute projection: visit gets, for
// each element of ids that has the named attribute, its position in the
// element's attribute list and its value bytes.
func (s *Store) AttrBytes(ids []ElemID, name string, visit func(i, pos int, value []byte)) error {
	return s.viewElems(ids, func(i int, rec []byte) {
		if pos, value, ok := elemAttr(rec, name); ok {
			visit(i, pos, value)
		}
	})
}

// viewElems calls visit with the record of each element of ids, in order,
// page by page.
func (s *Store) viewElems(ids []ElemID, visit func(i int, rec []byte)) error {
	var refs [256]uint64
	for base := 0; base < len(ids); base += len(refs) {
		n := min(len(refs), len(ids)-base)
		for j, id := range ids[base : base+n] {
			ref, ok := s.elemLoc.Get(uint64(id))
			if !ok {
				return fmt.Errorf("storage: element %d: %w", id, pagestore.ErrNoSuchRecord)
			}
			refs[j] = ref
		}
		if err := s.viewRefs(refs[:n], base, visit); err != nil {
			return err
		}
	}
	return nil
}

// EqContent returns structural nodes with the given tag whose content equals
// value, via the content index (no scan).
func (s *Store) EqContent(c core.Color, tag, value string) ([]SNode, error) {
	refs := s.ContentRefs(c, tag, value)
	out := make([]SNode, len(refs))
	return out, s.StructsByRef(out, refs, c)
}

// EqAttr returns the element ids whose attribute name equals value, via the
// attribute index.
func (s *Store) EqAttr(name, value string) []ElemID {
	obsIndexProbes.Inc()
	refs := s.attrIdx.Get(attrKey(name, value))
	out := make([]ElemID, len(refs))
	for i, r := range refs {
		out[i] = ElemID(r)
	}
	return out
}

// CrossTree is the color-transition access method of Section 6.2: it follows
// the element's back-link to its structural node in the target color. ok is
// false when the element does not participate in that colored tree.
func (s *Store) CrossTree(id ElemID, to core.Color) (SNode, bool, error) {
	ref, ok := s.structRef(id, to)
	if !ok {
		return SNode{}, false, nil
	}
	sn, err := s.StructByRef(ref, to)
	return sn, err == nil, err
}

// ColorsOf returns the colors an element participates in.
func (s *Store) ColorsOf(id ElemID) []core.Color {
	var out []core.Color
	for _, t := range s.trees {
		if _, ok := t.loc.Get(uint64(id)); ok {
			out = append(out, t.color)
		}
	}
	return out
}

// ParentOf returns the parent structural node of sn in its color: one probe
// of the start index at sn's stored parent-start.
func (s *Store) ParentOf(sn SNode) (SNode, bool, error) {
	if sn.ParentStart < 0 {
		return SNode{}, false, nil
	}
	obsIndexProbes.Inc()
	ref, ok := s.starts(sn.Color).Get(sn.ParentStart)
	if !ok {
		return SNode{}, false, fmt.Errorf("storage: dangling parent start %d in %q", sn.ParentStart, sn.Color)
	}
	p, err := s.StructByRef(ref, sn.Color)
	if err != nil {
		return SNode{}, false, err
	}
	return p, true, nil
}

// AppendAncestors appends to dst the ancestors of sn that carry tag,
// outermost first (the order a structural join emits them in) — or, with
// parentOnly, just the parent when it carries tag. It walks the stored
// parent-starts, so its cost is sn's depth, whatever the tag's population.
func (s *Store) AppendAncestors(dst []SNode, sn SNode, tag string, parentOnly bool) ([]SNode, error) {
	base := len(dst)
	for {
		p, ok, err := s.ParentOf(sn)
		if err != nil {
			return dst, err
		}
		if !ok {
			break
		}
		is, err := s.TagIs(p.Elem, tag)
		if err != nil {
			return dst, err
		}
		if is {
			dst = append(dst, p)
		}
		if parentOnly {
			break
		}
		sn = p
	}
	// The walk found them innermost first.
	for l, r := base, len(dst)-1; l < r; l, r = l+1, r-1 {
		dst[l], dst[r] = dst[r], dst[l]
	}
	return dst, nil
}

// seekStart returns the position, in a start-ordered posting list of sn's
// color, of the first node that starts after sn. A bulk load writes
// structural records in start order, so where sn's own record sits among the
// list's refs is usually the answer: that guess costs no reads to make and
// two to check. Where updates have put records out of start order the check
// fails, and a binary search reading one record per probe finds the place.
func (s *Store) seekStart(refs []uint64, sn SNode) (int, error) {
	var err error
	after := func(i int) bool {
		d, e := s.StructByRef(refs[i], sn.Color)
		if e != nil {
			err = e
		}
		return e != nil || d.Start > sn.Start
	}
	own, _ := s.structRef(sn.Elem, sn.Color)
	i := sort.Search(len(refs), func(i int) bool { return refs[i] > own })
	if (i == 0 || !after(i-1)) && (i == len(refs) || after(i)) && err == nil {
		return i, nil
	}
	if err != nil {
		return 0, err
	}
	i = sort.Search(len(refs), after)
	return i, err
}

// AppendWithin appends to dst the nodes of refs that lie inside sn's
// interval — its descendants, or with childOnly its children — in start
// order. refs is a posting list of sn's color (TagRefs, ContentRefs), which
// the store keeps in start order: the list is seeked to sn's start and read
// until sn's end, so the cost is the seek plus the nodes read, never the
// list.
func (s *Store) AppendWithin(dst []SNode, refs []uint64, sn SNode, childOnly bool) ([]SNode, error) {
	i, err := s.seekStart(refs, sn)
	if err != nil {
		return dst, err
	}
	for ; i < len(refs); i++ {
		d, err := s.StructByRef(refs[i], sn.Color)
		if err != nil {
			return dst, err
		}
		if d.Start >= sn.End {
			break
		}
		if !childOnly || sn.IsParentOf(d) {
			dst = append(dst, d)
		}
	}
	return dst, nil
}

// Subtree returns the descendants of sn (excluding sn) in start order.
func (s *Store) Subtree(sn SNode) ([]SNode, error) {
	var out []SNode
	var scanErr error
	obsIndexProbes.Inc()
	s.starts(sn.Color).Range(sn.Start+1, sn.End, func(_ int64, ref uint64) bool {
		d, err := s.StructByRef(ref, sn.Color)
		if scanErr = err; err != nil {
			return false
		}
		out = append(out, d)
		return true
	})
	return out, scanErr
}

// ChildrenOf returns the direct children of sn in start order: one seek per
// child, each past the end of the one before, so no other descendant is read.
func (s *Store) ChildrenOf(sn SNode) ([]SNode, error) {
	var out []SNode
	for pos := sn.Start + 1; ; {
		d, ok, err := s.startFrom(sn.Color, pos)
		if err != nil || !ok || d.Start >= sn.End {
			return out, err
		}
		out = append(out, d)
		pos = d.End + 1
	}
}

// Roots returns the root structural nodes of a colored tree (children of the
// document) in start order.
func (s *Store) Roots(c core.Color) ([]SNode, error) {
	doc, _ := s.Document(c)
	return s.ChildrenOf(doc)
}

// ErrMixedContent reports an element with both text and a child in the color
// a string value is read in: its record keeps the text but not where the text
// sits among the children, so the store cannot give the value.
var ErrMixedContent = errors.New("storage: mixed content: the store keeps no position for an element's text among its children")

// AppendStringValue appends to dst the string value of element id in color c
// (paper Section 3.2: the text of its subtree in c). That is the content
// records of the structural nodes in [start, end] of c, in start order: one
// range scan of the color's start index. The node that follows one with
// content in that order is its first child if it has one, so the same scan
// finds mixed content, and then the value is ErrMixedContent.
func (s *Store) AppendStringValue(dst []byte, id ElemID, c core.Color) ([]byte, error) {
	sn, ok, err := s.CrossTree(id, c)
	if err == nil && !ok {
		err = fmt.Errorf("storage: element %d is not in %q: %w", id, c, pagestore.ErrNoSuchRecord)
	}
	if err != nil {
		return dst, err
	}
	textEnd := int64(-1) // the end of the last node read that had content
	obsIndexProbes.Inc()
	s.starts(c).Range(sn.Start, sn.End, func(start int64, ref uint64) bool {
		d := sn
		if start != sn.Start {
			if d, err = s.StructByRef(ref, c); err != nil {
				return false
			}
		}
		if d.Start < textEnd {
			err = fmt.Errorf("storage: element %d in %q: %w", id, c, ErrMixedContent)
			return false
		}
		n := len(dst)
		err = s.viewElem(d.Elem, func(rec []byte) { dst = append(dst, elemContent(rec)...) })
		if len(dst) > n {
			textEnd = d.End
		}
		return err == nil
	})
	return dst, err
}
