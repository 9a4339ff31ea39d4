package core

import (
	"errors"
	"fmt"
)

// ValidationError describes one violated MCT invariant, identifying the node
// and color involved.
type ValidationError struct {
	Node  *Node
	Color Color
	Msg   string
}

func (e *ValidationError) Error() string {
	if e.Color != "" {
		return fmt.Sprintf("core: invariant violation at %v in color %q: %s", e.Node, e.Color, e.Msg)
	}
	return fmt.Sprintf("core: invariant violation at %v: %s", e.Node, e.Msg)
}

// Validate checks the MCT database invariants of Definition 3.2:
//
//  1. every colored tree is a rooted, acyclic, ordered tree over nodes that
//     carry that color, rooted at the shared document node;
//  2. parent/child links are mutually consistent in every color;
//  3. each node occurs at most once in each colored tree;
//  4. attribute, namespace and text nodes carry exactly the colors of their
//     owner element, with the owner as parent in each color;
//  5. the document node carries every database color.
//
// It returns all violations found, joined, or nil.
func (db *Database) Validate() error {
	var errs []error
	report := func(n *Node, c Color, format string, args ...any) {
		errs = append(errs, &ValidationError{Node: n, Color: c, Msg: fmt.Sprintf(format, args...)})
	}

	for c := range db.colors {
		if !db.doc.HasColor(c) {
			report(db.doc, c, "document node lacks database color")
		}
	}

	// Per color: walk the rooted tree, then detect stray colored nodes that
	// are not part of it (detached fragments are invalid in a database).
	for _, c := range db.Colors() {
		inTree := make(map[NodeID]bool)
		var walk func(n *Node)
		walk = func(n *Node) {
			if inTree[n.ID()] {
				report(n, c, "node occurs more than once in colored tree")
				return
			}
			inTree[n.ID()] = true
			for _, ch := range Children(n, c) {
				if ch.Kind() != KindText { // text nodes have implicit parentage
					cl := ch.link(c)
					if cl == nil {
						report(ch, c, "child of %v lacks the edge color", n)
						continue
					}
					if cl.parent != n {
						report(ch, c, "child/parent link mismatch: child's parent is %v, expected %v", cl.parent, n)
					}
				} else if ch.owner != n {
					report(ch, c, "text node owned by %v listed under %v", ch.owner, n)
				}
				walk(ch)
			}
		}
		walk(db.doc)

		db.byID.Ascend(func(_ uint64, n *Node) bool {
			// Owned nodes are checked below.
			if n.owner == nil && n.HasColor(c) && !inTree[n.ID()] {
				report(n, c, "colored node is not part of the rooted colored tree")
			}
			return true
		})
	}

	// Owned-node invariants.
	db.byID.Ascend(func(_ uint64, n *Node) bool {
		switch n.Kind() {
		case KindAttribute, KindNamespace:
			if n.owner == nil {
				report(n, "", "attribute/namespace node without owner")
			}
		case KindText:
			if n.owner == nil {
				report(n, "", "text node without owner")
				return true
			}
			// The text node must appear exactly once among its owner's
			// children in every color of the owner.
			for _, c := range n.owner.Colors() {
				count := 0
				for _, ch := range Children(n.owner, c) {
					if ch == n {
						count++
					}
				}
				if count != 1 {
					report(n, c, "text node appears %d times under its owner (want 1)", count)
				}
			}
		}
		return true
	})

	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}
