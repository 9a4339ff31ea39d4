package core

import (
	"strconv"
	"strings"
)

// Parent implements the color-aware dm:parent accessor: the parent of n in
// the colored tree c, or nil when n and c are not color compatible or n is a
// root. Attribute, namespace and text nodes report their owner element as
// parent in every color the owner has (Definition 3.2(iii)).
func Parent(n *Node, c Color) *Node {
	if n == nil {
		return nil
	}
	if n.owner != nil {
		if n.owner.HasColor(c) {
			return n.owner
		}
		return nil
	}
	l := n.link(c)
	if l == nil {
		return nil
	}
	return l.parent
}

// Children implements the color-aware dm:children accessor: the ordered
// children of n in the colored tree c, or nil when n and c are not color
// compatible. Attribute and namespace nodes are not children.
func Children(n *Node, c Color) []*Node {
	if n == nil {
		return nil
	}
	l := n.link(c)
	if l == nil {
		return nil
	}
	return l.children
}

// StringValue implements the color-aware dm:string-value accessor. For text,
// attribute, comment, namespace and PI nodes it is the node's own value (when
// color compatible). For element and document nodes it is the concatenation,
// in local order, of the values of all descendant text nodes in the colored
// tree c. An empty string with ok=false indicates color incompatibility.
func StringValue(n *Node, c Color) (string, bool) {
	if n == nil || !n.HasColor(c) {
		return "", false
	}
	switch n.Kind() {
	case KindText, KindAttribute, KindComment, KindNamespace, KindPI:
		return n.value, true
	}
	var b strings.Builder
	var walk func(m *Node)
	walk = func(m *Node) {
		for _, ch := range Children(m, c) {
			if ch.Kind() == KindText {
				b.WriteString(ch.value)
			} else {
				walk(ch)
			}
		}
	}
	walk(n)
	return b.String(), true
}

// TypedValue implements the color-aware dm:typed-value accessor. Untyped
// values are returned per the XML data model's atomization rules, simplified:
// a value parseable as an integer yields int64, as a decimal yields float64,
// otherwise the string itself. ok=false indicates color incompatibility.
func TypedValue(n *Node, c Color) (any, bool) {
	s, ok := StringValue(n, c)
	if !ok {
		return nil, false
	}
	return Atomize(s), true
}

// Atomize converts a lexical value into its typed counterpart: int64 when it
// parses as an integer, float64 when it parses as a decimal, else the
// (trimmed) string unchanged.
func Atomize(s string) any {
	i, f, isInt, ok := parseNumber(s)
	switch {
	case !ok:
		return s
	case isInt:
		return i
	default:
		return f
	}
}

// Numeric returns the number Atomize types s as, if it types it as one.
func Numeric(s string) (float64, bool) {
	i, f, isInt, ok := parseNumber(s)
	if isInt {
		return float64(i), ok
	}
	return f, ok
}

// parseNumber is the parse behind Atomize. Most values that reach it are
// plain text, and strconv allocates an error for each failed parse, so text
// is turned away on its first byte: everything strconv accepts as an integer
// or a float starts with a digit, a sign or a point, except the unsigned
// spellings of infinity and NaN.
func parseNumber(s string) (i int64, f float64, isInt, ok bool) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, 0, false, false
	}
	switch c := t[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.':
	case strings.EqualFold(t, "inf"), strings.EqualFold(t, "infinity"), strings.EqualFold(t, "nan"):
	default:
		return 0, 0, false, false
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return i, 0, true, true
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return 0, f, false, true
	}
	return 0, 0, false, false
}

// Descendants returns all descendants of n in color c in local (pre-) order,
// excluding attribute and namespace nodes.
func Descendants(n *Node, c Color) []*Node {
	var out []*Node
	var walk func(m *Node)
	walk = func(m *Node) {
		for _, ch := range Children(m, c) {
			out = append(out, ch)
			walk(ch)
		}
	}
	if n != nil && n.HasColor(c) {
		walk(n)
	}
	return out
}

// FollowingSiblings returns the siblings after n in its parent's child list
// in color c.
func FollowingSiblings(n *Node, c Color) []*Node {
	p := Parent(n, c)
	if p == nil {
		return nil
	}
	sib := Children(p, c)
	for i, s := range sib {
		if s == n {
			return sib[i+1:]
		}
	}
	return nil
}

// PrecedingSiblings returns the siblings before n in reverse local order.
func PrecedingSiblings(n *Node, c Color) []*Node {
	p := Parent(n, c)
	if p == nil {
		return nil
	}
	sib := Children(p, c)
	for i, s := range sib {
		if s == n {
			out := make([]*Node, 0, i)
			for j := i - 1; j >= 0; j-- {
				out = append(out, sib[j])
			}
			return out
		}
	}
	return nil
}
