package mcxquery

import (
	"cmp"
	"fmt"
	"strings"

	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/xmlenc"
)

// LexQuery tokenizes a complete MCXQuery source text with the modal lexer:
// ordinary expression tokens, plus element-constructor tokens (TokTagOpen,
// TokTagClose, TokTagSelfClose, TokTagEnd, TokRawText) produced by switching
// to raw-content mode inside constructors and back to expression mode inside
// enclosed `{ ... }` expressions.
//
// Disambiguation follows XQuery: '<' starts a constructor only at operand
// position (start of input, after '(', '[', ',', '{', ':=', an operator, or
// a keyword such as return/in/where/then/else); elsewhere it is less-than.
// Curly braces nest: a '{' inside an expression (a color specification)
// increments the brace depth so only the matching outer '}' returns to
// constructor content.
func LexQuery(src string) ([]pathexpr.Token, error) {
	ts := NewTokens(src)
	// Update and probe texts run about one token per three bytes: size the
	// slice for that once, and let append grow it for denser texts.
	out := make([]pathexpr.Token, 0, len(src)/3+2)
	for {
		tok := ts.Advance()
		if ts.err != nil {
			return nil, ts.err
		}
		out = append(out, tok)
		if tok.Kind == pathexpr.TokEOF {
			return out, nil
		}
	}
}

// Tokens is the parser's token source over an MCXQuery text: the modal
// lexer of LexQuery run on demand, two tokens ahead of the parser (as far
// as the grammars look), so a parse keeps no token slice. The first lexing
// error stops the stream — every token after it is TokEOF — and Close
// reports it.
type Tokens struct {
	ml    modalLexer
	ahead [2]pathexpr.Token
	n     int // tokens in ahead
	err   error
}

// NewTokens returns a token source over src.
func NewTokens(src string) *Tokens {
	ts := &Tokens{ml: modalLexer{lx: pathexpr.NewLexer(src)}}
	ts.ml.stack = append(ts.ml.stack0[:0], frame{kind: fExpr})
	return ts
}

// fill lexes until ahead holds k+1 tokens; the stream ends at TokEOF.
func (ts *Tokens) fill(k int) {
	if k >= len(ts.ahead) {
		panic("mcxquery: the parser looks further ahead than Tokens keeps")
	}
	for ts.n <= k {
		if ts.n > 0 && ts.ahead[ts.n-1].Kind == pathexpr.TokEOF {
			ts.ahead[ts.n] = ts.ahead[ts.n-1]
		} else if tok, err := ts.ml.next(); err != nil || ts.err != nil {
			ts.err = cmp.Or(ts.err, err)
			ts.ahead[ts.n] = pathexpr.Token{Kind: pathexpr.TokEOF, Pos: len(ts.ml.lx.Source())}
		} else {
			if tok.Kind == pathexpr.TokEOF && len(ts.ml.stack) > 1 {
				ts.err = pathexpr.Errf(tok.Pos, "unterminated element constructor <%s>", ts.ml.top().tag)
			}
			ts.ahead[ts.n] = tok
		}
		ts.n++
	}
}

// Peek implements pathexpr.TokenSource.
func (ts *Tokens) Peek() pathexpr.Token { return ts.PeekAt(0) }

// PeekAt implements pathexpr.TokenSource for k < 2.
func (ts *Tokens) PeekAt(k int) pathexpr.Token {
	ts.fill(k)
	return ts.ahead[k]
}

// Advance implements pathexpr.TokenSource.
func (ts *Tokens) Advance() pathexpr.Token {
	ts.fill(0)
	tok := ts.ahead[0]
	if tok.Kind != pathexpr.TokEOF {
		ts.ahead[0], ts.ahead[1] = ts.ahead[1], pathexpr.Token{}
		ts.n--
	}
	return tok
}

// Close lexes the rest of the text and returns the first lexing error, or
// nil. A caller reports it in place of the parser's error, so which error a
// malformed text reports does not depend on where the parser stopped: as
// with LexQuery, a text that does not lex fails with the lexer's error.
func (ts *Tokens) Close() error {
	for ts.Advance().Kind != pathexpr.TokEOF {
	}
	return ts.err
}

type frameKind uint8

const (
	fExpr    frameKind = iota // expression tokens
	fTag                      // inside a constructor start tag (attributes)
	fContent                  // raw constructor content
)

type frame struct {
	kind  frameKind
	depth int    // '{' nesting within an fExpr frame (color specs)
	tag   string // element name for fTag/fContent frames
}

type modalLexer struct {
	lx     *pathexpr.Lexer
	stack  []frame
	stack0 [4]frame       // stack's first backing array
	last   pathexpr.Token // last emitted token, for operand-position tracking
}

func (ml *modalLexer) top() *frame { return &ml.stack[len(ml.stack)-1] }

func (ml *modalLexer) push(f frame) { ml.stack = append(ml.stack, f) }

func (ml *modalLexer) pop() { ml.stack = ml.stack[:len(ml.stack)-1] }

// operandKeywords are identifiers after which '<' must start a constructor.
var operandKeywords = map[string]bool{
	"return": true, "in": true, "where": true, "then": true, "else": true,
	"and": true, "or": true, "div": true, "mod": true, "by": true,
	"satisfies": true, "to": true, "update": true, "into": true, "with": true,
	"insert": true, "before": true, "after": true,
}

func (ml *modalLexer) operandPosition() bool {
	switch ml.last.Kind {
	case pathexpr.TokEOF, // start of input (zero token)
		pathexpr.TokLParen, pathexpr.TokLBracket, pathexpr.TokComma,
		pathexpr.TokEq, pathexpr.TokNe, pathexpr.TokLt, pathexpr.TokLe,
		pathexpr.TokGt, pathexpr.TokGe, pathexpr.TokPlus, pathexpr.TokMinus,
		pathexpr.TokStar, pathexpr.TokAssign, pathexpr.TokLBrace,
		pathexpr.TokSemicolon:
		return true
	case pathexpr.TokIdent:
		return operandKeywords[ml.last.Text]
	default:
		return false
	}
}

func (ml *modalLexer) next() (pathexpr.Token, error) {
	var tok pathexpr.Token
	var err error
	switch ml.top().kind {
	case fExpr:
		tok, err = ml.nextExpr()
	case fTag:
		tok, err = ml.nextTag()
	case fContent:
		tok, err = ml.nextContent()
	}
	if err != nil {
		return pathexpr.Token{}, err
	}
	ml.last = tok
	return tok, nil
}

func (ml *modalLexer) nextExpr() (pathexpr.Token, error) {
	tok, err := ml.lx.Next()
	if err != nil {
		return pathexpr.Token{}, err
	}
	src := ml.lx.Source()
	if tok.Kind == pathexpr.TokLt && ml.operandPosition() &&
		ml.lx.Pos() < len(src) && isNameStart(src[ml.lx.Pos()]) {
		name := ml.scanName()
		ml.push(frame{kind: fTag, tag: name})
		return pathexpr.Token{Kind: pathexpr.TokTagOpen, Text: name, Pos: tok.Pos}, nil
	}
	switch tok.Kind {
	case pathexpr.TokLBrace:
		ml.top().depth++
	case pathexpr.TokRBrace:
		if ml.top().depth > 0 {
			ml.top().depth--
		} else if len(ml.stack) > 1 {
			ml.pop() // back to constructor content
		}
	}
	return tok, nil
}

func (ml *modalLexer) nextTag() (pathexpr.Token, error) {
	ml.lx.SkipSpace()
	src := ml.lx.Source()
	pos := ml.lx.Pos()
	if pos >= len(src) {
		return pathexpr.Token{}, pathexpr.Errf(pos, "unterminated start tag <%s>", ml.top().tag)
	}
	switch {
	case src[pos] == '>':
		ml.lx.SetPos(pos + 1)
		tag := ml.top().tag
		ml.pop()
		ml.push(frame{kind: fContent, tag: tag})
		return pathexpr.Token{Kind: pathexpr.TokTagClose, Text: ">", Pos: pos}, nil
	case strings.HasPrefix(src[pos:], "/>"):
		ml.lx.SetPos(pos + 2)
		ml.pop()
		return pathexpr.Token{Kind: pathexpr.TokTagSelfClose, Text: "/>", Pos: pos}, nil
	default:
		return ml.lx.Next()
	}
}

func (ml *modalLexer) nextContent() (pathexpr.Token, error) {
	src := ml.lx.Source()
	for {
		pos := ml.lx.Pos()
		if pos >= len(src) {
			return pathexpr.Token{}, pathexpr.Errf(pos, "unterminated element constructor <%s>", ml.top().tag)
		}
		switch {
		case strings.HasPrefix(src[pos:], "</"):
			ml.lx.SetPos(pos + 2)
			name := ml.scanName()
			if name == "" {
				return pathexpr.Token{}, pathexpr.Errf(pos, "malformed end tag")
			}
			ml.lx.SkipSpace()
			p := ml.lx.Pos()
			if p >= len(src) || src[p] != '>' {
				return pathexpr.Token{}, pathexpr.Errf(p, "malformed end tag </%s", name)
			}
			ml.lx.SetPos(p + 1)
			if name != ml.top().tag {
				return pathexpr.Token{}, pathexpr.Errf(pos, "mismatched end tag: </%s> closes <%s>", name, ml.top().tag)
			}
			ml.pop()
			return pathexpr.Token{Kind: pathexpr.TokTagEnd, Text: name, Pos: pos}, nil
		case src[pos] == '<' && pos+1 < len(src) && isNameStart(src[pos+1]):
			ml.lx.SetPos(pos + 1)
			name := ml.scanName()
			ml.push(frame{kind: fTag, tag: name})
			return pathexpr.Token{Kind: pathexpr.TokTagOpen, Text: name, Pos: pos}, nil
		case src[pos] == '<':
			return pathexpr.Token{}, pathexpr.Errf(pos, "unexpected '<' in constructor content")
		case src[pos] == '{':
			ml.lx.SetPos(pos + 1)
			ml.push(frame{kind: fExpr})
			return pathexpr.Token{Kind: pathexpr.TokLBrace, Text: "{", Pos: pos}, nil
		case src[pos] == '}':
			return pathexpr.Token{}, pathexpr.Errf(pos, "unexpected '}' in constructor content")
		default:
			end := pos
			for end < len(src) && src[end] != '<' && src[end] != '{' && src[end] != '}' {
				end++
			}
			raw := src[pos:end]
			ml.lx.SetPos(end)
			if strings.TrimSpace(raw) == "" {
				continue // boundary whitespace is dropped
			}
			text, err := xmlenc.Unescape(raw)
			if err != nil {
				return pathexpr.Token{}, pathexpr.Errf(pos, "bad entity in constructor content: %v", err)
			}
			return pathexpr.Token{Kind: pathexpr.TokRawText, Text: text, Pos: pos}, nil
		}
	}
}

// scanName reads an XML name at the current position, advancing past it.
func (ml *modalLexer) scanName() string {
	src := ml.lx.Source()
	start := ml.lx.Pos()
	pos := start
	for pos < len(src) && isNameChar(src[pos]) {
		pos++
	}
	ml.lx.SetPos(pos)
	return src[start:pos]
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// tokenDump renders tokens for debugging.
func tokenDump(toks []pathexpr.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = fmt.Sprintf("%d:%q", t.Kind, t.Text)
	}
	return strings.Join(parts, " ")
}
