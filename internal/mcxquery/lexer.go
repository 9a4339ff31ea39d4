package mcxquery

import (
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
	ml := &modalLexer{lx: pathexpr.NewLexer(src)}
	ml.stack = []frame{{kind: fExpr}}
	// Update and probe texts run about one token per three bytes: size the
	// slice for that once, and let append grow it for denser texts.
	out := make([]pathexpr.Token, 0, len(src)/3+2)
	for {
		tok, err := ml.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == pathexpr.TokEOF {
			if len(ml.stack) > 1 {
				top := ml.stack[len(ml.stack)-1]
				return nil, pathexpr.Errf(tok.Pos, "unterminated element constructor <%s>", top.tag)
			}
			return out, nil
		}
	}
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
	lx    *pathexpr.Lexer
	stack []frame
	last  pathexpr.Token // last emitted token, for operand-position tracking
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
