// Package xmlenc is a small, self-contained XML substrate: a lexer, a
// document parser and a writer, with entity escaping. It implements the
// subset of XML 1.0 needed by the MCT system — elements, attributes,
// character data, CDATA sections, comments, processing instructions and a
// skipped DOCTYPE — without namespaces-aware validation or DTD processing.
//
// It exists because the MCT exchange model (paper Section 5) serializes
// multi-colored databases as plain XML, and the experiment datasets are
// generated to and loaded from XML files.
package xmlenc

import (
	"fmt"
)

// Kind enumerates parsed node kinds.
type Kind uint8

// Parsed node kinds.
const (
	KindDocument Kind = iota
	KindElement
	KindText
	KindComment
	KindPI
)

// Attr is a parsed attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is a node of a parsed XML document tree. Document and element nodes
// have children; text, comment and PI nodes carry Value. PI nodes use Name
// for the target.
type Node struct {
	Kind     Kind
	Name     string
	Value    string
	Attrs    []Attr
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces an attribute.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Root returns the document's single element root, or nil.
func (n *Node) Root() *Node {
	if n.Kind != KindDocument {
		return nil
	}
	for _, c := range n.Children {
		if c.Kind == KindElement {
			return c
		}
	}
	return nil
}

// Elements returns the element children of n, optionally filtered by name
// (empty name matches all).
func (n *Node) Elements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindElement && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// NewText constructs a text node.
func NewText(value string) *Node { return &Node{Kind: KindText, Value: value} }

// ParseError reports a syntax error with byte offset and 1-based line.
type ParseError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmlenc: line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}
