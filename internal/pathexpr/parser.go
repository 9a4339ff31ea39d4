package pathexpr

import "strconv"

// TokenSource supplies tokens to the parser. The simple implementation is a
// pre-lexed slice; the mcxquery package provides a modal lexer that switches
// between expression tokens and raw element-constructor content.
type TokenSource interface {
	// Peek returns the current token without consuming it.
	Peek() Token
	// PeekAt returns the token k positions ahead (0 == Peek).
	PeekAt(k int) Token
	// Advance consumes and returns the current token.
	Advance() Token
}

// sliceSource is a TokenSource over a pre-lexed token slice ending in TokEOF.
type sliceSource struct {
	toks []Token
	pos  int
}

func (s *sliceSource) Peek() Token { return s.toks[s.pos] }

func (s *sliceSource) PeekAt(k int) Token {
	if s.pos+k >= len(s.toks) {
		return s.toks[len(s.toks)-1]
	}
	return s.toks[s.pos+k]
}

func (s *sliceSource) Advance() Token {
	t := s.toks[s.pos]
	if s.pos < len(s.toks)-1 {
		s.pos++
	}
	return t
}

// Parser is a recursive-descent parser for MCXQuery expressions. It is shared
// with the mcxquery package, which supplies a modal token source and an
// extension hook for FLWOR expressions and element constructors.
type Parser struct {
	src TokenSource
	// Ext, when set, is consulted at primary-expression position before the
	// base grammar. It returns (expr, true, nil) when it consumed an
	// extension production, (nil, false, nil) to fall through.
	Ext func(p *Parser) (Expr, bool, error)
}

// NewParser creates a parser over a token slice ending in TokEOF.
func NewParser(toks []Token) *Parser { return &Parser{src: &sliceSource{toks: toks}} }

// NewParserSource creates a parser over a custom token source.
func NewParserSource(src TokenSource) *Parser { return &Parser{src: src} }

// ParseString parses a complete expression from source text; trailing input
// is an error.
func ParseString(src string) (Expr, error) {
	toks, err := Tokens(src)
	if err != nil {
		return nil, err
	}
	p := NewParser(toks)
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if p.Peek().Kind != TokEOF {
		return nil, Errf(p.Peek().Pos, "unexpected %s after expression", p.Peek())
	}
	return e, nil
}

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token { return p.src.Peek() }

// PeekAt returns the token k positions ahead.
func (p *Parser) PeekAt(k int) Token { return p.src.PeekAt(k) }

// Advance consumes and returns the current token.
func (p *Parser) Advance() Token { return p.src.Advance() }

// Expect consumes a token of the given kind or fails.
func (p *Parser) Expect(k TokKind) (Token, error) {
	t := p.Peek()
	if t.Kind != k {
		return Token{}, Errf(t.Pos, "expected token kind %d, found %s", k, t)
	}
	return p.Advance(), nil
}

// ExpectIdent consumes an identifier with the exact given text.
func (p *Parser) ExpectIdent(text string) error {
	t := p.Peek()
	if t.Kind != TokIdent || t.Text != text {
		return Errf(t.Pos, "expected %q, found %s", text, t)
	}
	p.Advance()
	return nil
}

// isIdent reports whether the current token is the identifier text.
func (p *Parser) isIdent(text string) bool {
	t := p.Peek()
	return t.Kind == TokIdent && t.Text == text
}

// ParseExpr parses a full expression (lowest precedence: or).
func (p *Parser) ParseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isIdent("or") {
		p.Advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.isIdent("and") {
		p.Advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	var op BinaryOp
	switch p.Peek().Kind {
	case TokEq:
		op = OpEq
	case TokNe:
		op = OpNe
	case TokLt:
		op = OpLt
	case TokLe:
		op = OpLe
	case TokGt:
		op = OpGt
	case TokGe:
		op = OpGe
	default:
		return l, nil
	}
	p.Advance()
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r}, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.Peek().Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.Advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.Peek().Kind == TokStar:
			op = OpMul
		case p.isIdent("div"):
			op = OpDiv
		case p.isIdent("mod"):
			op = OpMod
		default:
			return l, nil
		}
		p.Advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.Peek().Kind == TokMinus {
		p.Advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{X: x}, nil
	}
	return p.parsePrimary()
}

// LiteralValue is the constant a string or number token denotes: its text
// for a string, an int64 for an integral number and a float64 otherwise.
func LiteralValue(t Token) (any, error) {
	if t.Kind == TokString {
		return t.Text, nil
	}
	if f, err := strconv.ParseInt(t.Text, 10, 64); err == nil {
		return f, nil
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return nil, Errf(t.Pos, "bad number %q", t.Text)
	}
	return f, nil
}

// nodeTypeNames are names that, followed by '(', denote node tests rather
// than function calls.
var nodeTypeNames = map[string]bool{
	"node": true, "text": true, "comment": true, "processing-instruction": true,
}

func (p *Parser) parsePrimary() (Expr, error) {
	if p.Ext != nil {
		e, ok, err := p.Ext(p)
		if err != nil {
			return nil, err
		}
		if ok {
			return e, nil
		}
	}
	t := p.Peek()
	switch t.Kind {
	case TokString, TokNumber:
		p.Advance()
		v, err := LiteralValue(t)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v, Pos: t.Pos}, nil
	case TokLParen:
		p.Advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokVar:
		p.Advance()
		if p.Peek().Kind == TokSlash || p.Peek().Kind == TokSlashSlash {
			pe := &PathExpr{Var: t.Text}
			if err := p.parseSteps(pe); err != nil {
				return nil, err
			}
			return pe, nil
		}
		return &VarRef{Name: t.Text}, nil
	case TokSlash, TokSlashSlash:
		pe := &PathExpr{FromRoot: true}
		if err := p.parseSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	case TokDot:
		// "." alone, or the start of a relative path "./..."
		if p.PeekAt(1).Kind == TokSlash || p.PeekAt(1).Kind == TokSlashSlash {
			return p.parseRelativePath()
		}
		p.Advance()
		return &ContextItem{}, nil
	case TokDotDot, TokLBrace, TokAt, TokStar:
		return p.parseRelativePath()
	case TokIdent:
		// document("...")/steps is a rooted path; other ident+'(' is a
		// function call unless it is a node-type test.
		if t.Text == "document" && p.PeekAt(1).Kind == TokLParen {
			p.Advance()
			p.Advance()
			str, err := p.Expect(TokString)
			if err != nil {
				return nil, err
			}
			if _, err := p.Expect(TokRParen); err != nil {
				return nil, err
			}
			pe := &PathExpr{Doc: str.Text}
			if p.Peek().Kind == TokSlash || p.Peek().Kind == TokSlashSlash {
				if err := p.parseSteps(pe); err != nil {
					return nil, err
				}
			}
			return pe, nil
		}
		if p.PeekAt(1).Kind == TokLParen && !nodeTypeNames[t.Text] {
			return p.parseCall()
		}
		return p.parseRelativePath()
	}
	return nil, Errf(t.Pos, "unexpected %s", t)
}

func (p *Parser) parseCall() (Expr, error) {
	name, err := p.Expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(TokLParen); err != nil {
		return nil, err
	}
	call := &Call{Name: name.Text}
	if p.Peek().Kind != TokRParen {
		for {
			arg, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.Peek().Kind != TokComma {
				break
			}
			p.Advance()
		}
	}
	if _, err := p.Expect(TokRParen); err != nil {
		return nil, err
	}
	return call, nil
}

// parseRelativePath parses a path that starts with a step.
func (p *Parser) parseRelativePath() (Expr, error) {
	pe := &PathExpr{}
	step, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	pe.Steps = append(pe.Steps, step)
	for p.Peek().Kind == TokSlash || p.Peek().Kind == TokSlashSlash {
		if err := p.parseOneSeparatorAndStep(pe); err != nil {
			return nil, err
		}
	}
	return pe, nil
}

// parseSteps parses ("/" step | "//" step)+ into pe.
func (p *Parser) parseSteps(pe *PathExpr) error {
	for p.Peek().Kind == TokSlash || p.Peek().Kind == TokSlashSlash {
		if err := p.parseOneSeparatorAndStep(pe); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseOneSeparatorAndStep(pe *PathExpr) error {
	sep := p.Advance()
	step, err := p.parseStep()
	if err != nil {
		return err
	}
	if sep.Kind == TokSlashSlash {
		// a//b  ==  a/descendant-or-self::node()/b, with the implicit step
		// running in b's color so the abbreviation stays single-colored.
		pe.Steps = append(pe.Steps, &Step{
			Color: step.Color,
			Axis:  AxisDescendantOrSelf,
			Test:  NodeTest{Kind: TestNode},
		})
	}
	pe.Steps = append(pe.Steps, step)
	return nil
}

// parseStep parses one location step: optional {color}, then an axis::test,
// an abbreviation (@attr, ., .., name, *), and trailing predicates.
func (p *Parser) parseStep() (*Step, error) {
	step := &Step{}
	if p.Peek().Kind == TokLBrace {
		p.Advance()
		var colorText string
		switch t := p.Peek(); t.Kind {
		case TokIdent, TokString:
			colorText = t.Text
			p.Advance()
		default:
			return nil, Errf(t.Pos, "expected color name, found %s", t)
		}
		if _, err := p.Expect(TokRBrace); err != nil {
			return nil, err
		}
		step.Color = coreColor(colorText)
	}
	t := p.Peek()
	switch t.Kind {
	case TokDot:
		p.Advance()
		step.Axis = AxisSelf
		step.Test = NodeTest{Kind: TestNode}
	case TokDotDot:
		p.Advance()
		step.Axis = AxisParent
		step.Test = NodeTest{Kind: TestNode}
	case TokAt:
		p.Advance()
		step.Axis = AxisAttribute
		test, err := p.parseNodeTest()
		if err != nil {
			return nil, err
		}
		step.Test = test
	case TokStar:
		p.Advance()
		step.Axis = AxisChild
		step.Test = NodeTest{Kind: TestStar}
	case TokIdent:
		if a, ok := axisByName(t.Text); ok && p.PeekAt(1).Kind == TokAxis {
			p.Advance()
			p.Advance()
			step.Axis = a
			test, err := p.parseNodeTest()
			if err != nil {
				return nil, err
			}
			step.Test = test
		} else {
			step.Axis = AxisChild
			test, err := p.parseNodeTest()
			if err != nil {
				return nil, err
			}
			step.Test = test
		}
	default:
		return nil, Errf(t.Pos, "expected location step, found %s", t)
	}
	for p.Peek().Kind == TokLBracket {
		p.Advance()
		pred, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRBracket); err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func (p *Parser) parseNodeTest() (NodeTest, error) {
	t := p.Peek()
	switch t.Kind {
	case TokStar:
		p.Advance()
		return NodeTest{Kind: TestStar}, nil
	case TokIdent:
		p.Advance()
		if nodeTypeNames[t.Text] && p.Peek().Kind == TokLParen {
			p.Advance()
			var name string
			if p.Peek().Kind == TokString {
				name = p.Advance().Text
			}
			if _, err := p.Expect(TokRParen); err != nil {
				return NodeTest{}, err
			}
			switch t.Text {
			case "node":
				return NodeTest{Kind: TestNode}, nil
			case "text":
				return NodeTest{Kind: TestText}, nil
			case "comment":
				return NodeTest{Kind: TestComment}, nil
			case "processing-instruction":
				return NodeTest{Kind: TestPI, Name: name}, nil
			}
		}
		return NodeTest{Kind: TestName, Name: t.Text}, nil
	default:
		return NodeTest{}, Errf(t.Pos, "expected node test, found %s", t)
	}
}
