package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// CheckInvariants is the storage half of the store/core consistency checker
// (ROADMAP item 5): one walk per color over its start index, from which
// everything else the store keeps about structure must follow.
//
//   - start index: each key is its record's start, the color's location
//     table points at the same record, and the index and the table hold as
//     many entries as the walk found nodes;
//   - intervals: 0 <= start < end < maxPos, all positions distinct, strictly
//     nested; a node's parent-start is the start of the innermost node open
//     around it (-1 under the document) and its level one more than that
//     node's;
//   - the tag, content and attribute-value maps hold exactly what the records
//     say, each in its key order, and their probes (CountTag, CountContent,
//     ContentPostings, EqAttr) answer it; the per-tag child counts behind
//     LeafTag are the tree's;
//   - StructNodes counts the walk.
//
// Test-only (export for the external test package), so the checker costs the
// library nothing.
func (s *Store) CheckInvariants() error {
	total := 0
	// Each index as (name, position, value) triples in key order: a tag's
	// (start, ref), a content's (start, ref), an attribute value's (id, id).
	type posting struct {
		name  string
		pos   int64
		value uint64
	}
	want, have := map[string][]posting{}, map[string][]posting{}
	attrs := map[ElemID][][2]string{}
	for i := range s.trees {
		t := &s.trees[i]
		c := t.color
		type open struct {
			sn  SNode
			tag string
		}
		var stack []open
		last := int64(-1) // the greatest position seen so far
		inner := map[string]int{}
		var bad error
		nodes := 0
		t.start.Ascend(func(k int64, ref uint64) bool {
			sn, err := s.StructByRef(ref, c)
			if err != nil {
				bad = fmt.Errorf("start key %d: %w", k, err)
				return false
			}
			if k != sn.Start {
				bad = fmt.Errorf("start key %d holds %+v", k, sn)
				return false
			}
			if have, ok := t.loc.Get(uint64(sn.Elem)); !ok || have != ref {
				bad = fmt.Errorf("%+v: location table says %d (%v), start index %d", sn, have, ok, ref)
				return false
			}
			for len(stack) > 0 && stack[len(stack)-1].sn.End < sn.Start {
				last = max(last, stack[len(stack)-1].sn.End)
				stack = stack[:len(stack)-1]
			}
			if sn.Start <= last || sn.End <= sn.Start || sn.End >= maxPos {
				bad = fmt.Errorf("%+v: positions out of order (last position before it %d)", sn, last)
				return false
			}
			last = sn.Start
			parent := open{sn: SNode{Start: -1, End: maxPos, Level: -1}}
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			if sn.End >= parent.sn.End || sn.ParentStart != parent.sn.Start || sn.Level != parent.sn.Level+1 {
				bad = fmt.Errorf("%+v does not nest as a child of %+v", sn, parent.sn)
				return false
			}
			e, err := s.Elem(sn.Elem)
			if err != nil {
				bad = fmt.Errorf("%+v: %w", sn, err)
				return false
			}
			if parent.tag != "" {
				inner[parent.tag]++
			}
			want["tag"] = append(want["tag"], posting{string(c) + " " + e.Tag, sn.Start, ref})
			if e.Content != "" {
				want["content"] = append(want["content"], posting{string(c) + " " + e.Tag + " " + e.Content, sn.Start, ref})
			}
			attrs[sn.Elem] = e.Attrs
			stack = append(stack, open{sn, e.Tag})
			nodes++
			return true
		})
		if bad != nil {
			return fmt.Errorf("storage: color %q: %w", c, bad)
		}
		if t.start.Len() != nodes || t.loc.Len() != nodes {
			return fmt.Errorf("storage: color %q: %d start keys and %d located nodes, %d walked",
				c, t.start.Len(), t.loc.Len(), nodes)
		}
		total += nodes
		counted := map[string]int{}
		for tag, e := range t.tags.maps {
			if e.children != 0 {
				counted[tag] = e.children
			}
		}
		if !maps.Equal(counted, inner) {
			return fmt.Errorf("storage: color %q: child counts %v, tree has %v", c, counted, inner)
		}
	}
	if total != s.counts.StructNodes {
		return fmt.Errorf("storage: %d structural nodes walked, %d counted", total, s.counts.StructNodes)
	}
	for id, as := range attrs {
		for _, a := range as {
			want["attr"] = append(want["attr"], posting{a[0] + " " + a[1], int64(id), uint64(id)})
		}
	}
	text := func(k string) (string, int64) {
		return k[:len(k)-8], int64(binary.BigEndian.Uint64([]byte(k[len(k)-8:])))
	}
	for i := range s.trees {
		t := &s.trees[i]
		for tag, e := range t.tags.maps {
			e.m.Ascend(func(start int64, ref uint64) bool {
				have["tag"] = append(have["tag"], posting{string(t.color) + " " + tag, start, ref})
				return true
			})
		}
		for tag, e := range t.texts.maps {
			e.m.Ascend(func(k string, ref uint64) bool {
				content, start := text(k)
				have["content"] = append(have["content"], posting{string(t.color) + " " + tag + " " + content, start, ref})
				return true
			})
		}
	}
	for name, e := range s.attrs.maps {
		e.m.Ascend(func(k string, id uint64) bool {
			value, pos := text(k)
			have["attr"] = append(have["attr"], posting{name + " " + value, pos, id})
			return true
		})
	}
	byKey := func(p []posting) []posting {
		p = slices.Clone(p)
		slices.SortStableFunc(p, func(a, b posting) int {
			return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.pos, b.pos))
		})
		return p
	}
	for _, idx := range []string{"tag", "content", "attr"} {
		if w, h := byKey(want[idx]), byKey(have[idx]); !slices.Equal(w, h) {
			return fmt.Errorf("storage: the %s index holds %v, the records say %v", idx, h, w)
		}
	}
	// The probes answer what the maps hold.
	for _, c := range s.colors {
		runs := map[string][]uint64{}
		for _, p := range want["content"] {
			if name, ok := strings.CutPrefix(p.name, string(c)+" "); ok {
				runs[name] = append(runs[name], p.value)
			}
		}
		for name, refs := range runs {
			tag, content, _ := strings.Cut(name, " ")
			var got []uint64
			run := s.ContentPostings(c, tag, content)
			run.Next(func(r []uint64) int {
				got = append(got, r...)
				return len(r)
			})
			if !slices.Equal(got, refs) || s.CountContent(c, tag, content) != len(refs) {
				return fmt.Errorf("storage: {%s}%s = %q finds %v (count %d), want %v", c, tag, content, got, s.CountContent(c, tag, content), refs)
			}
		}
	}
	attrRuns := map[string][]ElemID{}
	for _, p := range byKey(want["attr"]) {
		attrRuns[p.name] = append(attrRuns[p.name], ElemID(p.value))
	}
	for nv, ids := range attrRuns {
		name, value, _ := strings.Cut(nv, " ")
		if got := s.EqAttr(name, value); !slices.Equal(got, ids) {
			return fmt.Errorf("storage: @%s = %q finds %v, want %v", name, value, got, ids)
		}
	}
	return nil
}

// TestPositionSpaceExhausted: a color whose positions are used up refuses the
// insert as a delta it cannot absorb, which sends the caller to a full Load —
// and that re-packs the positions.
func TestPositionSpaceExhausted(t *testing.T) {
	s := NewStore("red")
	doc, _ := s.Document("red")
	root, err := s.InsertLeafChild(doc, "a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	root.End = maxPos - 1
	if err := s.putStruct(root); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertLeafChild(root, "inside", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertLeafChild(doc, "b", "", nil); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf("a root past the last position: %v, want ErrDeltaUnsupported", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
