package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"colorfulxml/internal/btree"
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
//   - tag and content posting lists hold exactly the color's nodes, in start
//     order; the per-tag child counts behind LeafTag are the tree's;
//   - StructNodes counts the walk.
//
// Test-only (export for the external test package), so the checker costs the
// library nothing.
func (s *Store) CheckInvariants() error {
	total := 0
	wantTag, wantContent := map[string][]uint64{}, map[string][]uint64{}
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
			sn, err := s.readStructRef(ref, c)
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
			wantTag[tagKey(c, e.Tag)] = append(wantTag[tagKey(c, e.Tag)], ref)
			if e.Content != "" {
				key := contentKey(c, e.Tag, e.Content)
				wantContent[key] = append(wantContent[key], ref)
			}
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
		for tag, n := range inner {
			if t.inner[tag] != n {
				return fmt.Errorf("storage: color %q: %d nodes under a %s, counted %d", c, n, tag, t.inner[tag])
			}
		}
		if len(t.inner) != len(inner) {
			return fmt.Errorf("storage: color %q: child counts %v, tree has %v", c, t.inner, inner)
		}
	}
	if total != s.counts.StructNodes {
		return fmt.Errorf("storage: %d structural nodes walked, %d counted", total, s.counts.StructNodes)
	}
	for _, idx := range []struct {
		name string
		have *btree.Tree
		want map[string][]uint64
	}{{"tag", s.tagIdx, wantTag}, {"content", s.contentIdx, wantContent}} {
		if idx.have.Len() != len(idx.want) {
			return fmt.Errorf("storage: %s index has %d keys, the trees %d", idx.name, idx.have.Len(), len(idx.want))
		}
		for key, want := range idx.want {
			if have := idx.have.Get(key); !slices.Equal(have, want) {
				return fmt.Errorf("storage: %s postings of %q are %v, in start order %v", idx.name, key, have, want)
			}
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
