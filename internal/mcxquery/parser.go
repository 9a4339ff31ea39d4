package mcxquery

import (
	"cmp"

	"colorfulxml/internal/pathexpr"
)

// ParseQuery parses a complete MCXQuery expression: a FLWOR expression, an
// element constructor, or any colored path / general expression.
func ParseQuery(src string) (pathexpr.Expr, error) {
	toks := NewTokens(src)
	p := pathexpr.NewParserSource(toks)
	p.Ext = ExtParse
	e, err := p.ParseExpr()
	if err == nil && p.Peek().Kind != pathexpr.TokEOF {
		err = pathexpr.Errf(p.Peek().Pos, "unexpected %s after query", p.Peek())
	}
	if err = cmp.Or(toks.Close(), err); err != nil {
		return nil, err
	}
	return e, nil
}

// ExtParse is the primary-expression extension hook: FLWOR expressions,
// conditional expressions, element constructors, and parenthesized sequences.
// It is exported for the update package, which parses MCXQuery expressions
// inside update clauses.
func ExtParse(p *pathexpr.Parser) (pathexpr.Expr, bool, error) {
	t := p.Peek()
	switch {
	case t.Kind == pathexpr.TokIdent && (t.Text == "for" || t.Text == "let") &&
		p.PeekAt(1).Kind == pathexpr.TokVar:
		e, err := parseFLWOR(p)
		return e, true, err
	case t.Kind == pathexpr.TokIdent && t.Text == "if" &&
		p.PeekAt(1).Kind == pathexpr.TokLParen:
		e, err := parseIf(p)
		return e, true, err
	case t.Kind == pathexpr.TokTagOpen:
		e, err := parseCtor(p)
		return e, true, err
	case t.Kind == pathexpr.TokLParen:
		e, err := parseParenSeq(p)
		return e, true, err
	default:
		return nil, false, nil
	}
}

func parseFLWOR(p *pathexpr.Parser) (pathexpr.Expr, error) {
	f := &FLWOR{}
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
			f.Clauses = append(f.Clauses, Clause{Let: isLet, Var: v.Text, Expr: e})
			// ", $v ..." continues the same clause kind.
			if p.Peek().Kind == pathexpr.TokComma && p.PeekAt(1).Kind == pathexpr.TokVar {
				p.Advance()
				continue
			}
			break
		}
	}
	if len(f.Clauses) == 0 {
		return nil, pathexpr.Errf(p.Peek().Pos, "expected for/let clause")
	}
	if t := p.Peek(); t.Kind == pathexpr.TokIdent && t.Text == "where" {
		p.Advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		f.Where = e
	}
	if t := p.Peek(); t.Kind == pathexpr.TokIdent && (t.Text == "order" || t.Text == "stable") {
		if t.Text == "stable" {
			p.Advance()
		}
		if err := p.ExpectIdent("order"); err != nil {
			return nil, err
		}
		if err := p.ExpectIdent("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if t := p.Peek(); t.Kind == pathexpr.TokIdent && (t.Text == "ascending" || t.Text == "descending") {
				key.Desc = t.Text == "descending"
				p.Advance()
			}
			f.OrderBy = append(f.OrderBy, key)
			if p.Peek().Kind != pathexpr.TokComma {
				break
			}
			p.Advance()
		}
	}
	if err := p.ExpectIdent("return"); err != nil {
		return nil, err
	}
	ret, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	f.Return = ret
	return f, nil
}

func parseIf(p *pathexpr.Parser) (pathexpr.Expr, error) {
	p.Advance() // if
	if _, err := p.Expect(pathexpr.TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(pathexpr.TokRParen); err != nil {
		return nil, err
	}
	if err := p.ExpectIdent("then"); err != nil {
		return nil, err
	}
	then, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectIdent("else"); err != nil {
		return nil, err
	}
	els, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: then, Else: els}, nil
}

// parseCtor parses an element constructor. The modal lexer guarantees the
// token shape: TagOpen (attrName '=' string)* (TagSelfClose | TagClose
// content... TagEnd).
func parseCtor(p *pathexpr.Parser) (pathexpr.Expr, error) {
	open := p.Advance() // TokTagOpen
	ctor := &ElementCtor{Name: open.Text}
	for {
		t := p.Peek()
		switch t.Kind {
		case pathexpr.TokTagSelfClose:
			p.Advance()
			return ctor, nil
		case pathexpr.TokTagClose:
			p.Advance()
			return parseCtorContent(p, ctor)
		case pathexpr.TokIdent:
			p.Advance()
			if _, err := p.Expect(pathexpr.TokEq); err != nil {
				return nil, err
			}
			v, err := p.Expect(pathexpr.TokString)
			if err != nil {
				return nil, err
			}
			ctor.Attrs = append(ctor.Attrs, CtorAttr{Name: t.Text, Value: v.Text})
		default:
			return nil, pathexpr.Errf(t.Pos, "unexpected %s in start tag <%s>", t, ctor.Name)
		}
	}
}

func parseCtorContent(p *pathexpr.Parser, ctor *ElementCtor) (pathexpr.Expr, error) {
	for {
		t := p.Peek()
		switch t.Kind {
		case pathexpr.TokTagEnd:
			p.Advance()
			return ctor, nil
		case pathexpr.TokRawText:
			p.Advance()
			ctor.Content = append(ctor.Content, &TextCtor{Text: t.Text})
		case pathexpr.TokTagOpen:
			child, err := parseCtor(p)
			if err != nil {
				return nil, err
			}
			ctor.Content = append(ctor.Content, child)
		case pathexpr.TokLBrace:
			p.Advance()
			encl, err := parseExprSeq(p)
			if err != nil {
				return nil, err
			}
			if _, err := p.Expect(pathexpr.TokRBrace); err != nil {
				return nil, err
			}
			ctor.Content = append(ctor.Content, encl)
		default:
			return nil, pathexpr.Errf(t.Pos, "unexpected %s in content of <%s>", t, ctor.Name)
		}
	}
}

// parseExprSeq parses Expr ("," Expr)*, wrapping multiples in SeqExpr.
func parseExprSeq(p *pathexpr.Parser) (pathexpr.Expr, error) {
	first, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if p.Peek().Kind != pathexpr.TokComma {
		return first, nil
	}
	seq := &SeqExpr{Items: []pathexpr.Expr{first}}
	for p.Peek().Kind == pathexpr.TokComma {
		p.Advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		seq.Items = append(seq.Items, e)
	}
	return seq, nil
}

// parseParenSeq parses "(" ")" or "(" Expr ("," Expr)* ")".
func parseParenSeq(p *pathexpr.Parser) (pathexpr.Expr, error) {
	p.Advance() // (
	if p.Peek().Kind == pathexpr.TokRParen {
		p.Advance()
		return &SeqExpr{}, nil
	}
	e, err := parseExprSeq(p)
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(pathexpr.TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}
