package storage

import (
	"errors"
	"fmt"
	"sync/atomic"

	"colorfulxml/internal/core"
)

// This file implements incremental snapshot maintenance: Clone produces a
// copy-on-write sibling of a frozen store snapshot, and ApplyChanges replays
// a logical change log (core.Change, drained from core.Database) against it
// using the store-level update operations. Together they let the serving
// layer publish a fresh snapshot after a point update without an O(N)
// storage.Load rebuild.

// ErrDeltaUnsupported reports a change-log entry with no incremental store
// counterpart (ChangeComplex); the caller must rebuild the snapshot with a
// full Load instead.
var ErrDeltaUnsupported = errors.New("storage: change delta unsupported for incremental maintenance")

// Clone returns a copy-on-write snapshot sibling of the store in time
// independent of the store's size: the page store shares immutable page
// images, the B+-tree indexes and the location tables share their nodes and
// chunks, and only the per-color headers are copied. A later mutation of
// either side copies the pages, tree paths and table chunks it touches and
// never becomes visible to the other.
//
// The intended discipline: the receiver is a frozen snapshot that keeps
// serving readers; the clone absorbs updates and is published in its place.
func (s *Store) Clone() *Store {
	ns := &Store{
		pages:      s.pages.Clone(),
		elemFile:   s.elemFile,
		elemLoc:    s.elemLoc.Clone(),
		trees:      append([]colorTree(nil), s.trees...),
		colors:     s.colors,
		tagIdx:     s.tagIdx.Clone(),
		contentIdx: s.contentIdx.Clone(),
		attrIdx:    s.attrIdx.Clone(),
		nextID:     s.nextID,
		counts:     s.counts,
	}
	for i := range ns.trees {
		ns.trees[i].loc = ns.trees[i].loc.Clone()
		ns.trees[i].start = ns.trees[i].start.Clone()
		s.trees[i].innerShared, ns.trees[i].innerShared = true, true
		// Summaries are immutable, so the clone starts from its parent's.
		ns.trees[i].summary = new(atomic.Pointer[PathSummary])
		ns.trees[i].summary.Store(s.trees[i].summary.Load())
	}
	// The clone starts structurally identical to its parent, so it inherits
	// the stats epoch; the first structural change it absorbs moves it to a
	// fresh one. (Atomics cannot be copied in the composite literal above.)
	ns.statsEpoch.Store(s.statsEpoch.Load())
	obsSnapshotClones.Inc()
	return ns
}

// ApplyChanges replays a drained change log in order. On ErrDeltaUnsupported
// (or any other error) the store may be left mid-replay and must be
// discarded in favor of a full Load; the frozen snapshot it was cloned from
// is unaffected.
func (s *Store) ApplyChanges(changes []core.Change) error {
	for i, ch := range changes {
		// A content change the next entry overwrites is dead: replacing an
		// element's text logs the old text's removal and then the new text,
		// and applying the first would shrink the record only for the second
		// to outgrow and relocate it.
		if ch.Kind == core.ChangeContent && i+1 < len(changes) &&
			changes[i+1].Kind == core.ChangeContent && changes[i+1].Elem == ch.Elem {
			continue
		}
		if err := s.applyChange(ch); err != nil {
			return fmt.Errorf("storage: applying change %d/%d (kind %d, elem %d): %w",
				i+1, len(changes), ch.Kind, ch.Elem, err)
		}
	}
	obsChangesApplied.Add(uint64(len(changes)))
	return nil
}

func (s *Store) applyChange(ch core.Change) error {
	switch ch.Kind {
	case core.ChangeAddDatabaseColor:
		s.addColor(ch.Color)
		return nil

	case core.ChangeContent:
		id := ElemID(ch.Elem)
		if _, ok := s.elemRID(id); !ok {
			return nil // detached fragment; not materialized
		}
		return s.UpdateContent(id, ch.Content)

	case core.ChangeAttrs:
		id := ElemID(ch.Elem)
		if _, ok := s.elemRID(id); !ok {
			return nil
		}
		return s.SetElemAttrs(id, ch.Attrs)

	case core.ChangeInsertLeaf:
		parent, err := s.changeParent(ch)
		if err != nil {
			return err
		}
		_, err = s.InsertLeafChildID(ElemID(ch.Elem), parent, ch.Tag, ch.Content, ch.Attrs)
		return err

	case core.ChangeAddColor:
		parent, err := s.changeParent(ch)
		if err != nil {
			return err
		}
		_, err = s.AddColorTo(ElemID(ch.Elem), parent)
		return err

	case core.ChangeDeleteSubtree:
		sn, ok, err := s.StructOf(ElemID(ch.Elem), ch.Color)
		if err != nil {
			return err
		}
		if !ok {
			return nil // already gone (e.g. removed with an ancestor)
		}
		return s.DeleteSubtree(sn)

	case core.ChangeComplex:
		return ErrDeltaUnsupported
	}
	return fmt.Errorf("unknown change kind %d: %w", ch.Kind, ErrDeltaUnsupported)
}

// changeParent resolves the node a change attaches under: the structural node
// of ch.Parent in ch.Color, or that color's document node for parent 0.
func (s *Store) changeParent(ch core.Change) (SNode, error) {
	parent, ok := s.Document(ch.Color)
	if ch.Parent != 0 {
		var err error
		if parent, ok, err = s.StructOf(ElemID(ch.Parent), ch.Color); err != nil {
			return SNode{}, err
		}
	}
	if !ok {
		return SNode{}, fmt.Errorf("parent %d not in color %q: %w", ch.Parent, ch.Color, ErrDeltaUnsupported)
	}
	return parent, nil
}
