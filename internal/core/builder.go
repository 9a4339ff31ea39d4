package core

import "fmt"

// This file provides convenience construction helpers layered over the
// first-color/next-color constructors and tree mutators. They are what data
// generators, loaders and examples use to assemble MCT databases tersely.

// AddElement creates a new element with first color c and appends it under
// parent in that color.
func (db *Database) AddElement(parent *Node, name string, c Color) (*Node, error) {
	n, err := db.NewElement(name, c)
	if err != nil {
		return nil, err
	}
	if err := db.Append(parent, n, c); err != nil {
		return nil, err
	}
	return n, nil
}

// AddElementText creates a new element with first color c, appends it under
// parent, and gives it a single text child with the given value.
func (db *Database) AddElementText(parent *Node, name string, c Color, text string) (*Node, error) {
	n, err := db.AddElement(parent, name, c)
	if err != nil {
		return nil, err
	}
	if _, err := db.AppendText(n, text); err != nil {
		return nil, err
	}
	return n, nil
}

// Adopt applies the next-color constructor to n for color c (if n does not
// already have c) and appends it under parent in c. It is the idiom for
// giving an existing node a second hierarchy: e.g. attaching a movie node,
// already red under its genre, as green under an award year.
func (db *Database) Adopt(parent, n *Node, c Color) error {
	if !n.HasColor(c) {
		if err := db.AddColor(n, c); err != nil {
			return err
		}
	}
	return db.Append(parent, n, c)
}

// SetText replaces the text content of elem: all existing text children are
// removed (in every color) and a single new text child with the given value
// is appended.
func (db *Database) SetText(elem *Node, value string) error {
	if elem == nil || elem.Kind() != KindElement {
		return fmt.Errorf("core: SetText on %v: %w", elem, ErrNotElement)
	}
	for _, t := range elem.textChildren() {
		if err := db.Delete(t); err != nil {
			return err
		}
	}
	_, err := db.AppendText(elem, value)
	return err
}

// Text returns the concatenated text-child content of elem (not recursing
// into subelements), which is the common "leaf element value" accessor. It is
// color independent because text nodes carry all their owner's colors.
func Text(elem *Node) string {
	if elem == nil {
		return ""
	}
	colors := elem.Colors()
	if len(colors) == 0 {
		return ""
	}
	s := ""
	for _, ch := range Children(elem, colors[0]) {
		if ch.Kind() == KindText {
			s += ch.value
		}
	}
	return s
}

// CopySubtree implements the createCopy semantics for a single node within
// one colored tree: it returns a fresh, detached deep copy (new identities)
// of n and its entire subtree in color c. Attributes and text content are
// copied; colors other than c are not.
func (db *Database) CopySubtree(n *Node, c Color) (*Node, error) {
	if n == nil {
		return nil, fmt.Errorf("core: CopySubtree of nil node")
	}
	if !n.HasColor(c) {
		return nil, fmt.Errorf("core: CopySubtree(%v, %q): %w", n, c, ErrColorIncompatible)
	}
	switch n.Kind() {
	case KindElement:
		cp, err := db.NewElement(n.name, c)
		if err != nil {
			return nil, err
		}
		for _, a := range n.Attributes() {
			if _, err := db.SetAttribute(cp, a.name, a.value); err != nil {
				return nil, err
			}
		}
		for _, ch := range Children(n, c) {
			if ch.Kind() == KindText {
				if _, err := db.AppendText(cp, ch.value); err != nil {
					return nil, err
				}
				continue
			}
			chCopy, err := db.CopySubtree(ch, c)
			if err != nil {
				return nil, err
			}
			if err := db.Append(cp, chCopy, c); err != nil {
				return nil, err
			}
		}
		return cp, nil
	case KindComment:
		return db.NewComment(n.value, c)
	case KindPI:
		return db.NewPI(n.name, n.value, c)
	default:
		return nil, fmt.Errorf("core: CopySubtree of %v unsupported", n)
	}
}

// Stats summarizes the composition of a database, used by the Table 1 storage
// experiment and by tests.
type Stats struct {
	Elements   int // element nodes (counted once, regardless of color count)
	Attributes int
	TextNodes  int
	Comments   int
	PIs        int
	// StructuralNodes counts one per (element, color) pair: the number of
	// structural records a Timber-style store materializes (Figure 10).
	StructuralNodes int
	// MultiColored counts elements with two or more colors.
	MultiColored int
}

// ComputeStats scans the database and reports its composition.
func (db *Database) ComputeStats() Stats {
	var s Stats
	db.byID.Ascend(func(_ uint64, n *Node) bool {
		switch n.Kind() {
		case KindElement:
			s.Elements++
			nc := len(n.links)
			s.StructuralNodes += nc
			if nc > 1 {
				s.MultiColored++
			}
		case KindAttribute:
			s.Attributes++
		case KindText:
			s.TextNodes++
		case KindComment:
			s.Comments++
		case KindPI:
			s.PIs++
		}
		return true
	})
	return s
}
