package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pagestore"
)

// StructByRef reads one structural record of color c, decoded in place in
// its page, from its packed ref (as TagPostings and ContentPostings give them).
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
// A page is held across the consecutive refs that lie on it — postings
// are in start order and a bulk load writes records in that order, so a scan
// costs one page lookup per page, not per record. rec is the record in its
// page, under pagestore.Store.ViewRecord's contract: never to be modified,
// and valid past the call once the store is frozen (Freeze).
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
// (TagPostings, ContentPostings, a path summary's) into dst, which must be as long as
// refs, reading page by page.
func (s *Store) StructsByRef(dst []SNode, refs []uint64, c core.Color) error {
	return s.viewRefs(refs, 0, func(i int, rec []byte) { dst[i] = decodeStruct(rec, c) })
}

// TagPostings returns the tag index run of (c, tag): its structural refs in
// start order, read a leaf of the index at a time. Callers resolve the refs
// (StructsByRef, StructByRef) as they go, so no scan materializes a list.
func (s *Store) TagPostings(c core.Color, tag string) Postings {
	obsIndexProbes.Inc()
	return Postings{tag: s.read(c).tags.get(tag)}
}

// ContentPostings returns the content index run of (c, tag, value): the
// refs of the tag's nodes whose content equals value, in start order.
func (s *Store) ContentPostings(c core.Color, tag, value string) Postings {
	obsIndexProbes.Inc()
	return Postings{text: s.read(c).texts.maps[tag], key: value}
}

// resolve reads the structural records of a run of color c, page by page,
// into out, which it grows as the run needs.
func (s *Store) resolve(out []SNode, p Postings, c core.Color) ([]SNode, error) {
	var err error
	p.Next(func(refs []uint64) int {
		n := len(out)
		out = slices.Grow(out, len(refs))[:n+len(refs)]
		if err = s.StructsByRef(out[n:], refs, c); err != nil {
			return 0
		}
		return len(refs)
	})
	return out, err
}

// ScanTag returns all structural nodes with the given tag in color c, in
// start (local document) order.
func (s *Store) ScanTag(c core.Color, tag string) ([]SNode, error) {
	return s.resolve(make([]SNode, 0, s.CountTag(c, tag)), s.TagPostings(c, tag), c)
}

// CountTag returns the number of structural nodes with a tag in color c
// without reading them (index-only).
func (s *Store) CountTag(c core.Color, tag string) int { return s.read(c).tags.get(tag).Len() }

// ContentRun is the content index run of (c, tag, value) of one store as
// CountRun counted it: its length N and, when it is short, its refs, so a
// scan of the same run (RunPostings) reads them instead of seeking it again.
type ContentRun struct {
	N     int
	st    *Store
	c     core.Color
	tag   string
	value string
	refs  [4]uint64 // the run's refs when N <= len(refs)
}

// CountRun counts the structural nodes with a tag whose content equals value
// in color c without reading them (index-only), the equality-selectivity
// statistic of the plan compiler's cost model, and keeps what it read for a
// scan of the run.
func (s *Store) CountRun(c core.Color, tag, value string) ContentRun {
	r := ContentRun{st: s, c: c, tag: tag, value: value}
	run := Postings{text: s.read(c).texts.maps[tag], key: value}
	run.Next(func(refs []uint64) int {
		if r.N+len(refs) <= len(r.refs) {
			copy(r.refs[r.N:], refs)
		}
		r.N += len(refs)
		return len(refs)
	})
	return r
}

// RunPostings is ContentPostings for a scan that may follow a count of the
// same run: when r counted it on s and it is short, the postings hand out
// r's refs, which must outlive them, and seek nothing.
func (s *Store) RunPostings(r *ContentRun, c core.Color, tag, value string) Postings {
	if r.st != s || r.c != c || r.tag != tag || r.value != value || r.N > len(r.refs) {
		return s.ContentPostings(c, tag, value)
	}
	obsIndexProbes.Inc()
	if r.N == 0 {
		return Postings{from: runOver}
	}
	return Postings{few: r.refs[:r.N]}
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
	e := s.read(c).tags.maps[tag]
	return s.tree(c) != nil && (e == nil || e.children == 0)
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
// order, as the bytes of the element record in its page: never to be
// modified, and valid only during the call unless the store is frozen, when
// they never change and may be kept (a kept slice holds its page image
// alive). It is ContentOf for a result column: content-only decode, page by
// page (elements created together sit together), nothing copied.
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
	return s.resolve(nil, s.ContentPostings(c, tag, value), c)
}

// EqAttr returns the element ids whose attribute name equals value, via the
// attribute index.
func (s *Store) EqAttr(name, value string) []ElemID {
	obsIndexProbes.Inc()
	var out []ElemID
	run := Postings{text: s.attrs.maps[name], key: value}
	run.Next(func(ids []uint64) int {
		for _, id := range ids {
			out = append(out, ElemID(id))
		}
		return len(ids)
	})
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
	ref, ok := s.read(sn.Color).start.Get(sn.ParentStart)
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

// AppendWithin appends to dst the nodes carrying tag that lie inside sn's
// interval — its descendants, or with childOnly its children — in start
// order: one range of the tag's map, which reads the records of the nodes in
// it. With childOnly a node inside one already read is no child, and is
// stepped over unread.
func (s *Store) AppendWithin(dst []SNode, tag string, sn SNode, childOnly bool) ([]SNode, error) {
	var err error
	past := sn.Start
	s.read(sn.Color).tags.get(tag).Range(sn.Start+1, sn.End-1, func(start int64, ref uint64) bool {
		if childOnly && start < past {
			return true
		}
		var d SNode
		if d, err = s.StructByRef(ref, sn.Color); err != nil {
			return false
		}
		if !childOnly || sn.IsParentOf(d) {
			dst = append(dst, d)
		}
		past = d.End
		return true
	})
	return dst, err
}

// Subtree returns the descendants of sn (excluding sn) in start order.
func (s *Store) Subtree(sn SNode) ([]SNode, error) {
	var out []SNode
	var scanErr error
	obsIndexProbes.Inc()
	s.read(sn.Color).start.Range(sn.Start+1, sn.End, func(_ int64, ref uint64) bool {
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

// nodeIn is CrossTree for an element that must be in c.
func (s *Store) nodeIn(id ElemID, c core.Color) (SNode, error) {
	sn, ok, err := s.CrossTree(id, c)
	if err == nil && !ok {
		err = fmt.Errorf("storage: element %d is not in %q: %w", id, c, pagestore.ErrNoSuchRecord)
	}
	return sn, err
}

// StringValues calls visit with the string value in color c of each element
// of ids (paper Section 3.2: the text of its subtree in c, the content
// records of the structural nodes in [start, end] of c in start order);
// value is valid only during the call. Rows in start order, as an answer in
// document order is, are read in one pass over c's start index from the
// first row to the end of the last, a leaf of records at a time: a row costs
// no seek, and once a gap between rows is found, the leaves before the next
// row are skipped unread. A row nested in the row before it, or out of start
// order, gets a pass of its own afterwards. The node that follows one with
// content in start order is its first child if it has one, so the same scan
// finds mixed content, and then the call fails with ErrMixedContent.
func (s *Store) StringValues(ids []ElemID, c core.Color, visit func(i int, value []byte)) error {
	if len(ids) == 0 {
		return nil
	}
	want, err := s.nodeIn(ids[0], c) // the node of ids[next], while known
	last := want
	if err == nil && len(ids) > 1 {
		last, err = s.nodeIn(ids[len(ids)-1], c)
	}
	if err != nil {
		return err
	}
	var (
		value        []byte
		row          = -1  // the row being read; -1 between rows
		end, textEnd int64 // its end, and that of its last node with content
		next         int   // the rows before it are placed
		known        = true
		clip         = max(want.End, last.End) // the pass reads no node past it
		later        []int                     // rows given a pass of their own
		elems        [64]ElemID
		spans        [64][2]int64 // start and end of the node of elems[i]
	)
	// passed reports whether ids[next] starts before start: out of order.
	passed := func(start int64) bool {
		if !known {
			want, err = s.nodeIn(ids[next], c)
			known = err == nil
		}
		return known && want.Start < start
	}
	obsIndexProbes.Inc()
	s.read(c).start.Leaves(want.Start, func(keys []int64, refs []uint64) bool {
		if row < 0 && known && keys[len(keys)-1] < want.Start {
			return true
		}
		n := len(keys)
		for n > 0 && keys[n-1] > clip {
			n--
		}
		if err = s.viewRefs(refs[:n], 0, func(i int, rec []byte) { // decodeStruct's first three fields
			elems[i] = ElemID(binary.LittleEndian.Uint64(rec[0:8]))
			spans[i] = [2]int64{int64(binary.LittleEndian.Uint64(rec[8:16])), int64(binary.LittleEndian.Uint64(rec[16:24]))}
		}); err != nil {
			return false
		}
		done := false
		err = cmp.Or(s.viewElems(elems[:n], func(i int, rec []byte) {
			elem, start := elems[i], spans[i][0]
			if done = done || err != nil; done {
				return
			}
			if row >= 0 && start > end {
				visit(row, value)
				row = -1
			}
			for next < len(ids) && (elem == ids[next] || row < 0 && passed(start)) {
				if row < 0 && elem == ids[next] {
					row, end, textEnd, value = next, spans[i][1], -1, value[:0]
				} else {
					later = append(later, next)
				}
				next, known = next+1, false
			}
			switch {
			case row < 0:
				done = next == len(ids)
			case start < textEnd:
				err = fmt.Errorf("storage: element %d in %q: %w", ids[row], c, ErrMixedContent)
			default:
				if content := elemContent(rec); len(content) > 0 {
					value, textEnd = append(value, content...), spans[i][1]
				}
			}
		}), err)
		return !done && err == nil && n == len(keys)
	})
	switch {
	case err != nil:
		return err
	case row >= 0 && end <= clip:
		visit(row, value)
	case row >= 0:
		later = append(later, row)
	}
	for ; next < len(ids); next++ {
		later = append(later, next)
	}
	for _, i := range later {
		if err := s.StringValues(ids[i:i+1], c, func(_ int, value []byte) { visit(i, value) }); err != nil {
			return err
		}
	}
	return nil
}
