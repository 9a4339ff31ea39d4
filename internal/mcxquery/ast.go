// Package mcxquery implements the MCXQuery language of the paper's Section 4:
// XQuery FLWOR expressions (for, let, where, order by, return) over colored
// path expressions, element constructor expressions whose enclosed
// expressions retain node identities, and the createColor and createCopy
// functions that color and copy constructed results.
//
// Evaluating a query that constructs elements mutates the database: new
// nodes are created and existing nodes gain the constructed color (the
// paper's next-color constructor applied by createColor). A node may occur
// at most once in any colored tree, so reusing the same node twice in one
// constructed tree raises the dynamic error core.ErrDuplicateInTree, exactly
// as in the paper's dupl-problem example.
package mcxquery

import (
	"fmt"
	"strings"

	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/xmlenc"
)

// Clause is one for/let binding clause of a FLWOR expression.
type Clause struct {
	// Let distinguishes "let $v := e" from "for $v in e".
	Let  bool
	Var  string
	Expr pathexpr.Expr
}

func (c Clause) String() string {
	if c.Let {
		return fmt.Sprintf("let $%s := %s", c.Var, c.Expr)
	}
	return fmt.Sprintf("for $%s in %s", c.Var, c.Expr)
}

// OrderKey is one "order by" sort key.
type OrderKey struct {
	Expr pathexpr.Expr
	Desc bool
}

// FLWOR is a for/let/where/order by/return expression.
type FLWOR struct {
	Clauses []Clause
	Where   pathexpr.Expr // nil when absent
	OrderBy []OrderKey
	Return  pathexpr.Expr
}

// ExprNode marks FLWOR as a pathexpr.Expr.
func (*FLWOR) ExprNode() {}

// Subexprs lets pathexpr.Walk descend into the FLWOR.
func (f *FLWOR) Subexprs() []pathexpr.Expr {
	var out []pathexpr.Expr
	for _, c := range f.Clauses {
		out = append(out, c.Expr)
	}
	if f.Where != nil {
		out = append(out, f.Where)
	}
	for _, k := range f.OrderBy {
		out = append(out, k.Expr)
	}
	out = append(out, f.Return)
	return out
}

func (f *FLWOR) String() string {
	var b strings.Builder
	for i, c := range f.Clauses {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(c.String())
	}
	if f.Where != nil {
		fmt.Fprintf(&b, " where %s", f.Where)
	}
	if len(f.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, k := range f.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Expr.String())
			if k.Desc {
				b.WriteString(" descending")
			}
		}
	}
	fmt.Fprintf(&b, " return %s", f.Return)
	return b.String()
}

// CtorAttr is a literal attribute of an element constructor. Pos is the
// byte offset of its value's token in the source text, as for
// pathexpr.Literal.
type CtorAttr struct {
	Name  string
	Value string
	Pos   int
}

// ElementCtor is an element constructor expression
// <name attr="v"> content </name>, whose content items are TextCtor literals,
// nested ElementCtors, and enclosed expressions.
type ElementCtor struct {
	Name    string
	Attrs   []CtorAttr
	Content []pathexpr.Expr
}

// ExprNode marks ElementCtor as a pathexpr.Expr.
func (*ElementCtor) ExprNode() {}

// Subexprs lets pathexpr.Walk descend into the constructor content.
func (e *ElementCtor) Subexprs() []pathexpr.Expr { return e.Content }

func (e *ElementCtor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%s", e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, ` %s="%s"`, a.Name, xmlenc.EscapeAttr(a.Value))
	}
	if len(e.Content) == 0 {
		b.WriteString("/>")
		return b.String()
	}
	b.WriteString(">")
	for _, c := range e.Content {
		switch c := c.(type) {
		case *TextCtor:
			ctorTextEscaper.WriteString(&b, c.Text)
		case *ElementCtor:
			b.WriteString(c.String())
		default:
			// No space around the braces: it would join the text beside them.
			fmt.Fprintf(&b, "{ %s }", c)
		}
	}
	fmt.Fprintf(&b, "</%s>", e.Name)
	return b.String()
}

// TextCtor is literal text content inside an element constructor. Pos is
// the byte offset of its token in the source text, as for pathexpr.Literal.
type TextCtor struct {
	Text string
	Pos  int
}

// ExprNode marks TextCtor as a pathexpr.Expr.
func (*TextCtor) ExprNode() {}

func (t *TextCtor) String() string { return "text(" + pathexpr.Quote(t.Text) + ")" }

// ctorTextEscaper writes constructor text as the content lexer reads it back:
// it unescapes entities and stops at '<', '{' and '}'.
var ctorTextEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "{", "&#123;", "}", "&#125;")

// IfExpr is "if (cond) then a else b".
type IfExpr struct {
	Cond, Then, Else pathexpr.Expr
}

// ExprNode marks IfExpr as a pathexpr.Expr.
func (*IfExpr) ExprNode() {}

// Subexprs lets pathexpr.Walk descend into the conditional.
func (e *IfExpr) Subexprs() []pathexpr.Expr {
	return []pathexpr.Expr{e.Cond, e.Then, e.Else}
}

func (e *IfExpr) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", e.Cond, e.Then, e.Else)
}

// SeqExpr is a comma sequence of expressions (allowed inside enclosed
// expressions and parentheses).
type SeqExpr struct{ Items []pathexpr.Expr }

// ExprNode marks SeqExpr as a pathexpr.Expr.
func (*SeqExpr) ExprNode() {}

// Subexprs lets pathexpr.Walk descend into the sequence.
func (e *SeqExpr) Subexprs() []pathexpr.Expr { return e.Items }

func (e *SeqExpr) String() string {
	parts := make([]string, len(e.Items))
	for i, x := range e.Items {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CountVariableBindings counts for/let bindings in an expression tree
// (Figure 12 metric).
func CountVariableBindings(e pathexpr.Expr) int {
	n := 0
	pathexpr.Walk(e, func(x pathexpr.Expr) {
		if f, ok := x.(*FLWOR); ok {
			n += len(f.Clauses)
		}
	})
	return n
}

// CountPathExpressions counts path expressions in an expression tree
// (Figure 11 metric).
func CountPathExpressions(e pathexpr.Expr) int {
	return pathexpr.CountPaths(e)
}
