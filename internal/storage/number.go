package storage

import (
	"fmt"

	"colorfulxml/internal/core"
)

// This file is the numbering rule of structural inserts. A new node becomes
// the last child of its parent, in the positions between the parent's last
// child and the parent's end. When there are none left, room is made at a
// cost that does not depend on the size of the tree:
//
//   - ends grow. No record stores another node's end, so a node whose end is
//     followed by free positions — up to the next start in its color, less one
//     for each ancestor that ends in between and moves along — takes them by
//     having its one record overwritten. The last root's end is bounded only
//     by the position space.
//   - sibling runs relabel. With a sibling in the way, the smallest run of
//     whole sibling subtrees around the full node that has the room is spread
//     evenly over its span. Whole subtrees, because every child record stores
//     its parent's start: a start may move only if all children move with it.
//
// Never the tree. Either way the full node's width at least doubles, so a
// parent that keeps receiving children is extended O(log n) times for n of
// them. Relative order never changes and packed refs stay valid; only the
// keys of the start, tag and content maps are re-made.

// maxPos is the document's end in every color, which every node position
// stays below: far more positions than a store held in memory numbers at the
// bulk-load gap, and well inside the start index's int64 keys.
const maxPos = 1e16 - 1

// Document returns the document node as the parent of color c's roots, for
// InsertLeafChild and AddColorTo: it has no record, starts before every
// position and ends after them all. ok is false for a color the store does
// not have.
func (s *Store) Document(c core.Color) (doc SNode, ok bool) {
	return SNode{Color: c, Start: -1, End: maxPos, Level: -1, ParentStart: -1}, s.tree(c) != nil
}

// startBelow returns the node of color c with the greatest start below pos.
func (s *Store) startBelow(c core.Color, pos int64) (SNode, bool, error) {
	obsIndexProbes.Inc()
	_, ref, ok := s.read(c).start.SeekLT(pos)
	if !ok {
		return SNode{}, false, nil
	}
	sn, err := s.StructByRef(ref, c)
	return sn, err == nil, err
}

// startFrom returns the node of color c with the least start at or above pos.
func (s *Store) startFrom(c core.Color, pos int64) (sn SNode, ok bool, err error) {
	obsIndexProbes.Inc()
	s.read(c).start.Range(pos, maxPos, func(_ int64, ref uint64) bool {
		sn, err = s.StructByRef(ref, c)
		ok = err == nil
		return false
	})
	return sn, ok, err
}

// childBelow returns the child of parent whose subtree holds the greatest
// start below pos: parent's last child for pos = parent.End, a child's
// previous sibling for pos = its start. One reverse seek, then parent hops.
func (s *Store) childBelow(parent SNode, pos int64) (SNode, bool, error) {
	d, ok, err := s.startBelow(parent.Color, pos)
	if err != nil || !ok || d.Start <= parent.Start {
		return SNode{}, false, err
	}
	for d.ParentStart != parent.Start {
		if d, ok, err = s.ParentOf(d); err != nil || !ok {
			return SNode{}, false, fmt.Errorf("storage: no path from inside %v up to it: %w", parent, err)
		}
	}
	return d, true, nil
}

// parentOrDocument is ParentOf with the document standing in for a root's
// missing parent.
func (s *Store) parentOrDocument(sn SNode) (SNode, error) {
	p, ok, err := s.ParentOf(sn)
	if err == nil && !ok {
		p, _ = s.Document(sn.Color)
	}
	return p, err
}

// lastChildSlot allocates the structural node of element id as the new last
// child of parent, making room first when parent is full, and returns it with
// parent's tag. The interval leaves room for children of its own where parent
// has room to give.
func (s *Store) lastChildSlot(id ElemID, parent SNode) (sn SNode, parentTag string, err error) {
	if s.tree(parent.Color) == nil {
		return SNode{}, "", fmt.Errorf("storage: unknown color %q", parent.Color)
	}
	if parent.Start >= 0 {
		if parentTag, err = s.tagOf(parent.Elem); err != nil {
			return SNode{}, "", err
		}
	}
	for {
		lo := parent.Start
		if last, ok, err := s.childBelow(parent, parent.End); err != nil {
			return SNode{}, "", err
		} else if ok {
			lo = last.End
		}
		if room := parent.End - lo - 1; room >= 2 {
			return SNode{
				Elem:        id,
				Color:       parent.Color,
				Start:       lo + 1,
				End:         lo + 1 + min(gap, max(1, room/4)),
				Level:       parent.Level + 1,
				ParentStart: parent.Start,
			}, parentTag, nil
		}
		if parent, err = s.extend(parent, 2); err != nil {
			return SNode{}, "", err
		}
	}
}

// putStruct overwrites sn's record, which has not moved.
func (s *Store) putStruct(sn SNode) error {
	ref, _ := s.structRef(sn.Elem, sn.Color)
	return s.pages.OverwriteRecord(unpackRID(ref), encodeStruct(sn))
}

// extend moves n's end right by at least need positions — by n's own width
// (and no less than the bulk-load gap), where there is room for that — and
// returns n as it is then.
func (s *Store) extend(n SNode, need int64) (SNode, error) {
	if n.Start < 0 {
		// The document cannot grow: the color's positions are used up. A full
		// Load re-packs them, so this is a delta the store cannot absorb.
		return n, fmt.Errorf("storage: color %q has no interval positions left: %w", n.Color, ErrDeltaUnsupported)
	}
	parent, err := s.parentOrDocument(n)
	if err != nil {
		return n, err
	}
	want := max(need, gap, n.End-n.Start)
	// What stops the end: the next sibling's start, or the parent's end.
	next, sibling, err := s.startFrom(n.Color, n.End+1)
	if err != nil {
		return n, err
	}
	stop := parent.End
	if sibling = sibling && next.Start < parent.End; sibling {
		stop = next.Start
	}
	free := stop - 1 - n.End
	if free < need && !sibling {
		// n is the last child, so the parent's end can move first. That may
		// relabel the parent's whole subtree: read n again.
		if parent, err = s.extend(parent, want-free); err != nil {
			return n, err
		}
		if n, _, err = s.CrossTree(n.Elem, n.Color); err != nil {
			return n, err
		}
		free = parent.End - 1 - n.End
	}
	if free < need {
		return s.relabel(parent, n, want)
	}
	n.End += min(free, want)
	obsIntervalGrows.Inc()
	return n, s.putStruct(n)
}

// relabel gives n, a child of parent with a sibling in the way of its end,
// extra more positions before that end: the run of parent's children around
// n is widened, doubling outward, until the subtrees in it can be spread
// evenly over the run's span with n's extra and still half the bulk-load gap
// between positions. A run that reaches all of parent's children and is
// still short makes parent extend. It returns n as it is then.
func (s *Store) relabel(parent, n SNode, extra int64) (SNode, error) {
	c := n.Color
	start := s.read(c).start
	first, last := n, n // the run: the children first..last of parent
	moreLeft, moreRight := true, true
	var refs []uint64 // its nodes, in start order
	var step int64    // the distance between positions it can be spread at
	for reach := 1; ; reach *= 2 {
		for i := 0; i < reach && moreLeft; i++ {
			sib, ok, err := s.childBelow(parent, first.Start)
			if err != nil {
				return n, err
			}
			if moreLeft = ok; ok {
				first = sib
			}
		}
		// The span stops at the first sibling right of the run, if any.
		stop := parent.End
		for i := 0; moreRight; i++ {
			sib, ok, err := s.startFrom(c, last.End+1)
			if err != nil {
				return n, err
			}
			if moreRight = ok && sib.Start < parent.End; !moreRight {
				break
			}
			if i == reach {
				stop = sib.Start
				break
			}
			last = sib
		}
		refs = refs[:0]
		start.Range(first.Start, last.End, func(_ int64, ref uint64) bool {
			refs = append(refs, ref)
			return true
		})
		span, positions := stop-first.Start, 2*int64(len(refs))
		if step = min(gap, (span-extra)/positions); step >= gap/2 {
			break
		}
		if moreLeft || moreRight {
			continue
		}
		// Every child of parent is in the run. Extending parent may relabel
		// them all: read the run's ends again, and measure again.
		var err error
		if parent, err = s.extend(parent, positions*gap/2+extra-span); err != nil {
			return n, err
		}
		for _, sn := range []*SNode{&first, &last, &n} {
			if *sn, _, err = s.CrossTree(sn.Elem, c); err != nil {
				return n, err
			}
		}
	}

	// Renumber the run in pre-order from its first start, which stays. The
	// stack holds the open nodes by index, ends still the old ones.
	nodes := make([]SNode, len(refs))
	if err := s.StructsByRef(nodes, refs, c); err != nil {
		return n, err
	}
	out := append([]SNode(nil), nodes...)
	pos := first.Start
	var open []int
	closeTop := func() {
		top := open[len(open)-1]
		open = open[:len(open)-1]
		if out[top].Elem == n.Elem {
			pos += extra
		}
		out[top].End = pos
		pos += step
	}
	for i, old := range nodes {
		for len(open) > 0 && nodes[open[len(open)-1]].End < old.Start {
			closeTop()
		}
		if len(open) > 0 {
			out[i].ParentStart = out[open[len(open)-1]].Start
		}
		out[i].Start = pos
		pos += step
		open = append(open, i)
	}
	for len(open) > 0 {
		closeTop()
	}
	// Old keys go before new ones come: the two sets overlap.
	t := s.tree(c)
	elems := make([]ElemInfo, len(nodes))
	for i, old := range nodes {
		var err error
		if elems[i], err = s.Elem(old.Elem); err != nil {
			return n, err
		}
		t.index(elems[i].Tag, elems[i].Content, old.Start, 0, false)
	}
	for i, sn := range out {
		if err := s.pages.OverwriteRecord(unpackRID(refs[i]), encodeStruct(sn)); err != nil {
			return n, err
		}
		t.index(elems[i].Tag, elems[i].Content, sn.Start, refs[i], true)
		if sn.Elem == n.Elem {
			n = sn
		}
	}
	obsRelabels.Inc()
	obsRelabelNodes.Observe(int64(len(out)))
	return n, nil
}
