package storage

import (
	"fmt"

	"colorfulxml/internal/core"
)

// Reconstruct rebuilds a core.Database from a recovered physical store. It is
// the inverse of Load for everything the store materializes: elements keep
// their NodeIDs (so WAL replay, which addresses elements by id, stays valid
// after recovery), every colored tree is rebuilt in document order, and
// attributes and text content are reattached last so text nodes land in all
// of their owner's colors.
//
// Store-invisible state — detached fragments, comments, processing
// instructions — is not in the store and therefore not recovered; this is the
// documented durability boundary.
func Reconstruct(s *Store) (*core.Database, error) {
	db := core.NewDatabase(s.colors...)

	ids := make([]ElemID, 0, s.elemLoc.Len())
	s.elemLoc.Ascend(func(id uint64, _ uint64) bool {
		ids = append(ids, ElemID(id))
		return true
	})

	nodes := make(map[ElemID]*core.Node, len(ids))
	infos := make(map[ElemID]ElemInfo, len(ids))
	for _, id := range ids {
		e, err := s.Elem(id)
		if err != nil {
			return nil, fmt.Errorf("storage: reconstruct: %w", err)
		}
		n, err := db.RestoreElement(core.NodeID(id), e.Tag)
		if err != nil {
			return nil, fmt.Errorf("storage: reconstruct: %w", err)
		}
		nodes[id] = n
		infos[id] = e
	}

	var attach func(parent *core.Node, sn SNode, c core.Color) error
	attach = func(parent *core.Node, sn SNode, c core.Color) error {
		n, ok := nodes[sn.Elem]
		if !ok {
			return fmt.Errorf("storage: reconstruct: color %q references missing element %d", c, sn.Elem)
		}
		if !n.HasColor(c) {
			if err := db.AddColor(n, c); err != nil {
				return fmt.Errorf("storage: reconstruct: %w", err)
			}
		}
		if err := db.Append(parent, n, c); err != nil {
			return fmt.Errorf("storage: reconstruct: %w", err)
		}
		children, err := s.ChildrenOf(sn)
		if err != nil {
			return fmt.Errorf("storage: reconstruct: %w", err)
		}
		for _, ch := range children {
			if err := attach(n, ch, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range s.colors {
		roots, err := s.Roots(c)
		if err != nil {
			return nil, fmt.Errorf("storage: reconstruct: %w", err)
		}
		for _, r := range roots {
			if err := attach(db.Document(), r, c); err != nil {
				return nil, err
			}
		}
	}

	// Attributes and text go last: AppendText inserts the text node into
	// every color the element holds, so all colors must be attached first.
	for _, id := range ids {
		e, n := infos[id], nodes[id]
		for _, a := range e.Attrs {
			if _, err := db.SetAttribute(n, a[0], a[1]); err != nil {
				return nil, fmt.Errorf("storage: reconstruct: %w", err)
			}
		}
		if e.Content != "" {
			if _, err := db.AppendText(n, e.Content); err != nil {
				return nil, fmt.Errorf("storage: reconstruct: %w", err)
			}
		}
	}

	// The rebuild itself generated change-log noise; the recovered database
	// starts with a clean log.
	db.DrainChanges()
	return db, nil
}
