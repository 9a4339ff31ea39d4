// Package update implements MCT update expressions (paper Section 4.3):
// the XQuery update extension of Tatarinov et al. ("Updating XML", SIGMOD
// 2001) — FOR/WHERE clauses binding target nodes, followed by an UPDATE
// clause with insert/delete/replace/rename operations — combined with
// MCXQuery's colored path expressions and constructor expressions so that
// updates unambiguously address one colored tree of an MCT database.
//
// Grammar (keywords lower-case, as in the rest of this repository):
//
//	update-expr := (for-clause | let-clause)* ("where" expr)?
//	               "update" $target "{" op ("," op)* "}"
//	op          := "delete" expr
//	             | "insert" expr                      // new child of $target
//	             | "insert" expr "before"|"after" expr
//	             | "replace" expr "with" expr         // replaces text content
//	             | "rename" expr "to" name
//
// Color semantics: each bound node item carries the color of the final step
// of the path that produced it; operations apply within that colored tree.
// Inserting an existing node applies the next-color constructor implicitly
// (the paper: "update operations implicitly add existing colors to new
// nodes, or to existing nodes"); inserting a constructed element materializes
// it in the target's color.
package update

import (
	"cmp"
	"fmt"
	"strings"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
)

// OpKind enumerates update operations.
type OpKind uint8

// Update operation kinds.
const (
	OpDelete OpKind = iota
	OpInsert
	OpInsertBefore
	OpInsertAfter
	OpReplace
	OpRename
)

// Op is one operation of the update clause.
type Op struct {
	Kind OpKind
	// Arg is the operation's primary operand (what to delete/insert/replace/
	// rename).
	Arg pathexpr.Expr
	// Ref is the anchor for insert-before/after, the replacement value for
	// replace.
	Ref pathexpr.Expr
	// Name is the new name for rename.
	Name string
}

func (o Op) String() string {
	switch o.Kind {
	case OpDelete:
		return fmt.Sprintf("delete %s", o.Arg)
	case OpInsert:
		return fmt.Sprintf("insert %s", o.Arg)
	case OpInsertBefore:
		return fmt.Sprintf("insert %s before %s", o.Arg, o.Ref)
	case OpInsertAfter:
		return fmt.Sprintf("insert %s after %s", o.Arg, o.Ref)
	case OpReplace:
		return fmt.Sprintf("replace %s with %s", o.Arg, o.Ref)
	case OpRename:
		return fmt.Sprintf("rename %s to %s", o.Arg, o.Name)
	default:
		return "?"
	}
}

// Update is a parsed update expression.
type Update struct {
	Clauses []mcxquery.Clause
	Where   pathexpr.Expr
	Target  string // target variable of the update clause
	Ops     []Op

	// bindText is the source of the binding clauses: the text up to the
	// update clause, by whose shape BindCompiled caches their plan.
	bindText string
}

func (u *Update) String() string {
	var b strings.Builder
	for i, c := range u.Clauses {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(c.String())
	}
	if u.Where != nil {
		fmt.Fprintf(&b, " where %s", u.Where)
	}
	fmt.Fprintf(&b, " update $%s { ", u.Target)
	for i, o := range u.Ops {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	b.WriteString(" }")
	return b.String()
}

// NumBindings returns the number of for/let bindings plus the update target,
// the Figure 12 metric for update statements.
func (u *Update) NumBindings() int { return len(u.Clauses) }

// CountPathExpressions counts path expressions across all clauses and ops
// (Figure 11 metric).
func (u *Update) CountPathExpressions() int {
	n := 0
	count := func(e pathexpr.Expr) {
		if e != nil {
			n += pathexpr.CountPaths(e)
		}
	}
	for _, c := range u.Clauses {
		count(c.Expr)
	}
	count(u.Where)
	for _, o := range u.Ops {
		count(o.Arg)
		count(o.Ref)
	}
	return n
}

// Parse parses an update expression.
func Parse(src string) (*Update, error) {
	toks := mcxquery.NewTokens(src)
	p := pathexpr.NewParserSource(toks)
	p.Ext = mcxquery.ExtParse
	u, err := parse(p, src)
	if err = cmp.Or(toks.Close(), err); err != nil {
		return nil, err
	}
	return u, nil
}

func parse(p *pathexpr.Parser, src string) (*Update, error) {
	u := &Update{}

	for {
		t := p.Peek()
		if t.Kind != pathexpr.TokIdent || (t.Text != "for" && t.Text != "let") ||
			p.PeekAt(1).Kind != pathexpr.TokVar {
			break
		}
		isLet := t.Text == "let"
		p.Advance()
		for {
			v, err := p.Expect(pathexpr.TokVar)
			if err != nil {
				return nil, err
			}
			if isLet {
				if _, err := p.Expect(pathexpr.TokAssign); err != nil {
					return nil, err
				}
			} else if err := p.ExpectIdent("in"); err != nil {
				return nil, err
			}
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			u.Clauses = append(u.Clauses, mcxquery.Clause{Let: isLet, Var: v.Text, Expr: e})
			if p.Peek().Kind == pathexpr.TokComma && p.PeekAt(1).Kind == pathexpr.TokVar {
				p.Advance()
				continue
			}
			break
		}
	}
	if t := p.Peek(); t.Kind == pathexpr.TokIdent && t.Text == "where" {
		p.Advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	u.bindText = src[:p.Peek().Pos]
	if err := p.ExpectIdent("update"); err != nil {
		return nil, err
	}
	tgt, err := p.Expect(pathexpr.TokVar)
	if err != nil {
		return nil, err
	}
	u.Target = tgt.Text
	if _, err := p.Expect(pathexpr.TokLBrace); err != nil {
		return nil, err
	}
	for {
		op, err := parseOp(p)
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if p.Peek().Kind == pathexpr.TokComma {
			p.Advance()
			continue
		}
		break
	}
	if _, err := p.Expect(pathexpr.TokRBrace); err != nil {
		return nil, err
	}
	if p.Peek().Kind != pathexpr.TokEOF {
		return nil, pathexpr.Errf(p.Peek().Pos, "unexpected %s after update expression", p.Peek())
	}
	if len(u.Clauses) == 0 {
		return nil, pathexpr.Errf(0, "update expression requires at least one for/let clause")
	}
	return u, nil
}

func parseOp(p *pathexpr.Parser) (Op, error) {
	t := p.Peek()
	if t.Kind != pathexpr.TokIdent {
		return Op{}, pathexpr.Errf(t.Pos, "expected update operation, found %s", t)
	}
	switch t.Text {
	case "delete":
		p.Advance()
		arg, err := p.ParseExpr()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpDelete, Arg: arg}, nil
	case "insert":
		p.Advance()
		arg, err := p.ParseExpr()
		if err != nil {
			return Op{}, err
		}
		if nt := p.Peek(); nt.Kind == pathexpr.TokIdent && (nt.Text == "before" || nt.Text == "after") {
			p.Advance()
			ref, err := p.ParseExpr()
			if err != nil {
				return Op{}, err
			}
			kind := OpInsertBefore
			if nt.Text == "after" {
				kind = OpInsertAfter
			}
			return Op{Kind: kind, Arg: arg, Ref: ref}, nil
		}
		return Op{Kind: OpInsert, Arg: arg}, nil
	case "replace":
		p.Advance()
		arg, err := p.ParseExpr()
		if err != nil {
			return Op{}, err
		}
		if err := p.ExpectIdent("with"); err != nil {
			return Op{}, err
		}
		ref, err := p.ParseExpr()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpReplace, Arg: arg, Ref: ref}, nil
	case "rename":
		p.Advance()
		arg, err := p.ParseExpr()
		if err != nil {
			return Op{}, err
		}
		if err := p.ExpectIdent("to"); err != nil {
			return Op{}, err
		}
		name, err := p.Expect(pathexpr.TokIdent)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpRename, Arg: arg, Name: name.Text}, nil
	default:
		return Op{}, pathexpr.Errf(t.Pos, "unknown update operation %q", t.Text)
	}
}
