// Package core implements the multi-colored trees (MCT) logical data model of
// "Colorful XML: One Hierarchy Isn't Enough" (SIGMOD 2004).
//
// An MCT database is a set of nodes N, a finite set of colors C, and one
// colored tree T_c per color c. Every colored tree is an ordered, rooted tree
// over a subset of N, rooted at the shared document node. A node may carry one
// or more colors and therefore participate in several hierarchies at once,
// while its content and attributes are stored exactly once.
//
// The package provides the seven XML node kinds, the color-aware node
// accessors of the paper's Section 3.2 (dm:parent, dm:children,
// dm:string-value, dm:typed-value, dm:colors), the first-color and next-color
// constructors of Section 3.3, per-color local document order, and validation
// of the MCT invariants of Definition 3.2.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Color identifies one hierarchy (one colored tree) of an MCT database.
type Color string

// NodeID is the unique, stable identity of a node within one Database. Node
// identity is never reused, and is preserved by path and query evaluation
// (MCXQuery enclosed expressions retain identities rather than copying).
type NodeID uint64

// Kind enumerates the seven node kinds of the XML data model.
type Kind uint8

// The seven node kinds.
const (
	KindDocument Kind = iota
	KindElement
	KindAttribute
	KindText
	KindNamespace
	KindPI
	KindComment
)

// String returns the XPath name of the node kind.
func (k Kind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	case KindNamespace:
		return "namespace"
	case KindPI:
		return "processing-instruction"
	case KindComment:
		return "comment"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// colorLink records a node's structural relationships within one colored tree:
// the color, the node's parent and its ordered children in that tree.
type colorLink struct {
	color    Color
	parent   *Node
	children []*Node
}

// Node is a single MCT node. A node belongs to at most one rooted colored tree
// per color (Definition 3.2). Its element content and attributes exist once,
// independent of how many colors the node has.
//
// Nodes are created through Database constructor methods and must not be
// shared across databases.
//
// The layout is the database's memory: a node costs 80 bytes plus 48 per
// color — a node has one or two of its database's few colors, and a map of
// them would cost some 290 bytes. Attributes are in the database's
// attribute table.
type Node struct {
	idKind uint64 // the kind in the top byte, the NodeID below it (idBits)
	name   string // qualified name for element, attribute and PI nodes
	value  string // value for attribute, text, comment and PI nodes
	db     *Database

	// owner is the element an attribute or namespace node belongs to, or the
	// parent element of a text node. Per Definition 3.2(iii) such nodes carry
	// all colors of their owner, with the owner as parent in each color.
	owner *Node

	// links has one entry per color of the node, sorted by color. Entries
	// are values: a *colorLink from link or ensureLink must not be held
	// across an ensureLink or RemoveColor on the same node.
	links []colorLink
}

// idBits is the width of a node's id in Node.idKind. Ids are dense counters
// (RestoreElement bounds a recovered one below 2^32), so they never reach
// the kind byte above them.
const idBits = 56

func packIDKind(id NodeID, k Kind) uint64 { return uint64(k)<<idBits | uint64(id) }

// ID returns the node's unique identity within its database.
func (n *Node) ID() NodeID { return NodeID(n.idKind & (1<<idBits - 1)) }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return Kind(n.idKind >> idBits) }

// Name returns the qualified name of an element, attribute or PI node, and
// the empty string for other kinds (dm:node-name).
func (n *Node) Name() string { return n.name }

// Value returns the lexical value carried directly by an attribute, text,
// comment or PI node. For elements and documents it returns the empty string;
// use StringValue for the color-aware concatenated value.
func (n *Node) Value() string { return n.value }

// Database returns the database this node belongs to.
func (n *Node) Database() *Database { return n.db }

// Owner returns the element node an attribute, namespace or text node is
// associated with, or nil for other kinds.
func (n *Node) Owner() *Node {
	switch n.Kind() {
	case KindAttribute, KindNamespace, KindText:
		return n.owner
	default:
		return nil
	}
}

// Colors implements the dm:colors accessor: the set of colors of the node, in
// deterministic (sorted) order. Attribute, namespace and text nodes report
// exactly the colors of their owner element (Definition 3.2(iii)).
func (n *Node) Colors() []Color {
	if n.owner != nil {
		return n.owner.Colors()
	}
	out := make([]Color, len(n.links))
	for i := range n.links {
		out[i] = n.links[i].color
	}
	return out
}

// HasColor reports whether the node participates in the colored tree c.
func (n *Node) HasColor(c Color) bool {
	if n.owner != nil {
		return n.owner.HasColor(c)
	}
	return n.link(c) != nil
}

// Label renders the node's identifier label in the paper's Figure 2 notation:
// the upper-cased initials of the node's colors, in sorted order, followed by
// the zero-padded node number, e.g. "RG012" for a red+green node number 12.
func (n *Node) Label() string {
	var b strings.Builder
	for _, c := range n.Colors() {
		if len(c) > 0 {
			b.WriteString(strings.ToUpper(string(c[0])))
		}
	}
	fmt.Fprintf(&b, "%03d", n.ID())
	return b.String()
}

// Attributes returns the attribute nodes of an element (dm:attributes). The
// result is shared storage; callers must not modify it.
func (n *Node) Attributes() []*Node {
	if attrs, ok := n.db.attrs.Get(uint64(n.ID())); ok {
		return *attrs
	}
	return nil
}

// Attribute returns the attribute node with the given name, or nil.
func (n *Node) Attribute(name string) *Node {
	for _, a := range n.Attributes() {
		if a.name == name {
			return a
		}
	}
	return nil
}

// AttributeValue returns the value of the named attribute, or "" if absent.
func (n *Node) AttributeValue(name string) string {
	if a := n.Attribute(name); a != nil {
		return a.value
	}
	return ""
}

// link returns the colorLink for color c, or nil when the node does not have
// that color. Owned nodes (attributes, namespaces, text) resolve through their
// owner for color membership but keep their own parent semantics.
func (n *Node) link(c Color) *colorLink {
	for i := range n.links {
		if n.links[i].color == c {
			return &n.links[i]
		}
	}
	return nil
}

// ensureLink returns the colorLink for c, creating it if absent.
func (n *Node) ensureLink(c Color) *colorLink {
	i, found := slices.BinarySearchFunc(n.links, c, func(l colorLink, c Color) int { return cmp.Compare(l.color, c) })
	if !found {
		n.links = slices.Insert(n.links, i, colorLink{color: c})
	}
	return &n.links[i]
}

// dropLink removes the colorLink for c.
func (n *Node) dropLink(c Color) {
	n.links = slices.DeleteFunc(n.links, func(l colorLink) bool { return l.color == c })
}

func (n *Node) String() string {
	switch n.Kind() {
	case KindDocument:
		return fmt.Sprintf("document#%d", n.ID())
	case KindElement:
		return fmt.Sprintf("<%s>#%d", n.name, n.ID())
	case KindAttribute:
		return fmt.Sprintf("@%s=%q#%d", n.name, n.value, n.ID())
	case KindText:
		return fmt.Sprintf("text(%q)#%d", n.value, n.ID())
	case KindComment:
		return fmt.Sprintf("comment(%q)#%d", n.value, n.ID())
	case KindPI:
		return fmt.Sprintf("pi(%s,%q)#%d", n.name, n.value, n.ID())
	default:
		return fmt.Sprintf("%s#%d", n.Kind(), n.ID())
	}
}
