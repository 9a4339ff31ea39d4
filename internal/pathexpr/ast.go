// Package pathexpr implements MCXQuery colored path expressions (paper
// Section 4.1): XPath-style path expressions whose location steps carry a
// color specification in curly braces, selecting which colored tree of an MCT
// database the step navigates, e.g.
//
//	document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]
//	$m/{red}child::movie-role/{blue}parent::actor
//
// Both the unabbreviated axis syntax and the common abbreviations ({c}name,
// {c}@attr, ., .., //) are supported. A step that omits its color inherits
// the color of the previous step (or of the evaluation context), which keeps
// single-colored fragments of a query concise.
//
// The package also provides the general-purpose expression language used in
// predicates (comparisons, arithmetic, boolean connectives, and the core
// function library including contains, distinct-values and the dm:colors
// accessor exposed as colors()).
package pathexpr

import (
	"fmt"
	"strings"

	"colorfulxml/internal/core"
)

// Axis enumerates the supported XPath axes.
type Axis uint8

// Supported axes. MCXQuery as defined in the paper conservatively tracks
// XQuery's XPath subset but we also provide the ancestor axes, which the
// paper notes would let query Q3 be a single path expression.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisAttribute
	AxisFollowingSibling
	AxisPrecedingSibling
)

var axisNames = map[Axis]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisSelf:             "self",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisAttribute:        "attribute",
	AxisFollowingSibling: "following-sibling",
	AxisPrecedingSibling: "preceding-sibling",
}

// String returns the axis name as written in queries.
func (a Axis) String() string { return axisNames[a] }

// axisByName resolves an axis name, reporting whether it exists.
func axisByName(s string) (Axis, bool) {
	for a, n := range axisNames {
		if n == s {
			return a, true
		}
	}
	return 0, false
}

// TestKind enumerates node test kinds.
type TestKind uint8

// Node test kinds.
const (
	TestName    TestKind = iota // element/attribute by name
	TestStar                    // *
	TestNode                    // node()
	TestText                    // text()
	TestComment                 // comment()
	TestPI                      // processing-instruction()
)

// NodeTest filters the nodes selected by an axis.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName (and optional PI target)
}

func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestStar:
		return "*"
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return "processing-instruction(" + Quote(t.Name) + ")"
		}
		return "processing-instruction()"
	default:
		return "?"
	}
}

// Step is one colored location step.
type Step struct {
	Color core.Color // empty means: inherit the context color
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s *Step) String() string {
	var b strings.Builder
	if s.Color != "" {
		fmt.Fprintf(&b, "{%s}", s.Color)
	}
	b.WriteString(s.Axis.String())
	b.WriteString("::")
	b.WriteString(s.Test.String())
	for _, p := range s.Preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// Expr is any MCXQuery expression node.
type Expr interface {
	fmt.Stringer
	ExprNode()
}

// PathExpr is a (possibly rooted) path expression.
type PathExpr struct {
	// Doc is the document("...") root, if the path is document-rooted.
	Doc string
	// FromRoot marks a path beginning with "/" (document-rooted without an
	// explicit document() call).
	FromRoot bool
	// Var is the starting variable for $v/step/... paths.
	Var string
	// Steps are the location steps; may be empty for a bare $v or document().
	Steps []*Step
}

func (*PathExpr) ExprNode() {}

func (p *PathExpr) String() string {
	var b strings.Builder
	switch {
	case p.Doc != "":
		fmt.Fprintf(&b, "document(%s)", Quote(p.Doc))
	case p.Var != "":
		fmt.Fprintf(&b, "$%s", p.Var)
	case p.FromRoot:
		// leading slash emitted below
	}
	for i, s := range p.Steps {
		if i > 0 || p.Doc != "" || p.Var != "" || p.FromRoot {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Literal is a string or numeric constant. Pos is the byte offset of its
// token in the source text, which is how a compiled plan tells the query's
// literals apart (the plan cache passes them as arguments).
type Literal struct {
	Val any
	Pos int
}

func (*Literal) ExprNode() {}

func (l *Literal) String() string {
	if s, ok := l.Val.(string); ok {
		return Quote(s)
	}
	return fmt.Sprint(l.Val)
}

// Quote returns s as a string literal the lexer reads back as s: in double
// quotes, or in single ones when it holds a double quote and no single one,
// or else in double quotes with each double quote doubled.
func Quote(s string) string {
	switch {
	case !strings.Contains(s, `"`):
		return `"` + s + `"`
	case !strings.Contains(s, "'"):
		return "'" + s + "'"
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// VarRef references a bound variable $name.
type VarRef struct{ Name string }

func (*VarRef) ExprNode() {}

func (v *VarRef) String() string { return "$" + v.Name }

// ContextItem is the "." expression.
type ContextItem struct{}

func (*ContextItem) ExprNode() {}

func (*ContextItem) String() string { return "." }

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

var opNames = map[BinaryOp]string{
	OpOr: "or", OpAnd: "and",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpMod: "mod",
}

// Binary is a binary operation.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (*Binary) ExprNode() {}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
}

// Unary is unary minus.
type Unary struct{ X Expr }

func (*Unary) ExprNode() {}

func (u *Unary) String() string { return fmt.Sprintf("(-%s)", u.X) }

// Call is a function call.
type Call struct {
	Name string
	Args []Expr
}

func (*Call) ExprNode() {}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ", "))
}

// CountSteps returns the number of location steps in the expression tree,
// used by the query-complexity experiments (Figures 11 and 12 count path
// expressions; steps are reported by analysis tooling).
func CountSteps(e Expr) int {
	n := 0
	Walk(e, func(x Expr) {
		if p, ok := x.(*PathExpr); ok {
			n += len(p.Steps)
		}
	})
	return n
}

// CountPaths returns the number of path expressions in the expression tree.
func CountPaths(e Expr) int {
	n := 0
	Walk(e, func(x Expr) {
		if _, ok := x.(*PathExpr); ok {
			n++
		}
	})
	return n
}

// ExtExpr is implemented by extension expression nodes defined outside this
// package (FLWOR expressions, element constructors) so that Walk can descend
// into their sub-expressions generically.
type ExtExpr interface {
	Expr
	// Subexprs returns the direct sub-expressions of the node.
	Subexprs() []Expr
}

// Walk visits every expression node in the tree rooted at e, including
// predicates inside path steps and extension nodes' sub-expressions.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *PathExpr:
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				Walk(p, fn)
			}
		}
	case *Binary:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Unary:
		Walk(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case ExtExpr:
		for _, s := range x.Subexprs() {
			Walk(s, fn)
		}
	}
}
