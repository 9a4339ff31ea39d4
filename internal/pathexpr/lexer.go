package pathexpr

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind enumerates lexical tokens of the expression language. It is shared
// with the MCXQuery parser, which embeds path expressions in FLWOR clauses.
type TokKind uint8

// Token kinds.
const (
	TokEOF          TokKind = iota
	TokIdent                // names, axis names, keywords (and, or, div, mod, for...)
	TokVar                  // $name
	TokString               // "..." or '...'
	TokNumber               // 123 or 1.5
	TokLBrace               // {
	TokRBrace               // }
	TokLBracket             // [
	TokRBracket             // ]
	TokLParen               // (
	TokRParen               // )
	TokSlash                // /
	TokSlashSlash           // //
	TokAxis                 // ::
	TokAt                   // @
	TokDot                  // .
	TokDotDot               // ..
	TokComma                // ,
	TokEq                   // =
	TokNe                   // !=
	TokLt                   // <
	TokLe                   // <=
	TokGt                   // >
	TokGe                   // >=
	TokPlus                 // +
	TokMinus                // -
	TokStar                 // *
	TokAssign               // := (used by MCXQuery let)
	TokTagOpen              // <name at element-constructor position (MCXQuery)
	TokTagClose             // > ending a constructor start tag (MCXQuery)
	TokTagSelfClose         // /> (MCXQuery)
	TokTagEnd               // </name> (MCXQuery)
	TokRawText              // raw constructor content (MCXQuery)
	TokSemicolon            // ;
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // identifier/var name, string value, or number text
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokIdent, TokNumber:
		return fmt.Sprintf("%q", t.Text)
	case TokVar:
		return fmt.Sprintf("$%s", t.Text)
	case TokString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// SyntaxError reports a parse error with its byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pathexpr: offset %d: %s", e.Pos, e.Msg)
}

// Lexer tokenizes MCXQuery source text. It is exported so the mcxquery
// package can share it.
type Lexer struct {
	src string
	pos int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Pos returns the current byte offset.
func (lx *Lexer) Pos() int { return lx.pos }

// SetPos repositions the lexer to an absolute byte offset. The mcxquery
// modal lexer uses it to hand raw constructor content back and forth.
func (lx *Lexer) SetPos(p int) { lx.pos = p }

// Source returns the full source text being lexed.
func (lx *Lexer) Source() string { return lx.src }

// SkipSpace advances past whitespace and (: ... :) comments, for callers
// that scan raw characters at the current position.
func (lx *Lexer) SkipSpace() { lx.skipSpace() }

// Errf builds a SyntaxError at the given position.
func Errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			lx.pos++
			continue
		}
		// (: comment :) XQuery-style comments.
		if c == '(' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == ':' {
			depth := 1
			i := lx.pos + 2
			for i < len(lx.src) && depth > 0 {
				if strings.HasPrefix(lx.src[i:], "(:") {
					depth++
					i += 2
				} else if strings.HasPrefix(lx.src[i:], ":)") {
					depth--
					i += 2
				} else {
					i++
				}
			}
			lx.pos = i
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// Next returns the next token. Identifiers are maximal name runs; note that
// XPath names may contain '-' and '.', so "a -b" and "a-b" differ.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpace()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.src[lx.pos]
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch {
	case two == "//":
		lx.pos += 2
		return Token{Kind: TokSlashSlash, Text: "//", Pos: start}, nil
	case two == "::":
		lx.pos += 2
		return Token{Kind: TokAxis, Text: "::", Pos: start}, nil
	case two == "!=":
		lx.pos += 2
		return Token{Kind: TokNe, Text: "!=", Pos: start}, nil
	case two == "<=":
		lx.pos += 2
		return Token{Kind: TokLe, Text: "<=", Pos: start}, nil
	case two == ">=":
		lx.pos += 2
		return Token{Kind: TokGe, Text: ">=", Pos: start}, nil
	case two == ":=":
		lx.pos += 2
		return Token{Kind: TokAssign, Text: ":=", Pos: start}, nil
	case two == "..":
		lx.pos += 2
		return Token{Kind: TokDotDot, Text: "..", Pos: start}, nil
	}
	switch c {
	case '{':
		lx.pos++
		return Token{Kind: TokLBrace, Text: "{", Pos: start}, nil
	case '}':
		lx.pos++
		return Token{Kind: TokRBrace, Text: "}", Pos: start}, nil
	case '[':
		lx.pos++
		return Token{Kind: TokLBracket, Text: "[", Pos: start}, nil
	case ']':
		lx.pos++
		return Token{Kind: TokRBracket, Text: "]", Pos: start}, nil
	case '(':
		lx.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case ')':
		lx.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case '/':
		lx.pos++
		return Token{Kind: TokSlash, Text: "/", Pos: start}, nil
	case '@':
		lx.pos++
		return Token{Kind: TokAt, Text: "@", Pos: start}, nil
	case ',':
		lx.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case ';':
		lx.pos++
		return Token{Kind: TokSemicolon, Text: ";", Pos: start}, nil
	case '=':
		lx.pos++
		return Token{Kind: TokEq, Text: "=", Pos: start}, nil
	case '<':
		lx.pos++
		return Token{Kind: TokLt, Text: "<", Pos: start}, nil
	case '>':
		lx.pos++
		return Token{Kind: TokGt, Text: ">", Pos: start}, nil
	case '+':
		lx.pos++
		return Token{Kind: TokPlus, Text: "+", Pos: start}, nil
	case '-':
		lx.pos++
		return Token{Kind: TokMinus, Text: "-", Pos: start}, nil
	case '*':
		lx.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case '.':
		lx.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case '$':
		lx.pos++
		if lx.pos >= len(lx.src) || !isIdentStart(lx.src[lx.pos]) {
			return Token{}, Errf(start, "expected variable name after '$'")
		}
		s := lx.pos
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		return Token{Kind: TokVar, Text: lx.src[s:lx.pos], Pos: start}, nil
	case '"', '\'':
		// A doubled delimiter stands for one (XQuery 1.0 §A.2.1); a literal
		// without one is a substring of the source.
		quote := c
		lx.pos++
		s := lx.pos
		var doubled []byte
		for {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != quote {
				lx.pos++
			}
			if lx.pos >= len(lx.src) {
				return Token{}, Errf(start, "unterminated string literal")
			}
			if lx.pos+1 == len(lx.src) || lx.src[lx.pos+1] != quote {
				break
			}
			doubled = append(doubled, lx.src[s:lx.pos+1]...)
			lx.pos += 2
			s = lx.pos
		}
		text := lx.src[s:lx.pos]
		if doubled != nil {
			text = string(append(doubled, text...))
		}
		lx.pos++
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
	if c >= '0' && c <= '9' {
		s := lx.pos
		for lx.pos < len(lx.src) && (lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9') {
			lx.pos++
		}
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
			lx.pos++
			for lx.pos < len(lx.src) && (lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9') {
				lx.pos++
			}
		}
		text := lx.src[s:lx.pos]
		if _, err := strconv.ParseFloat(text, 64); err != nil {
			return Token{}, Errf(start, "malformed number %q", text)
		}
		return Token{Kind: TokNumber, Text: text, Pos: start}, nil
	}
	if isIdentStart(c) {
		s := lx.pos
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		return Token{Kind: TokIdent, Text: lx.src[s:lx.pos], Pos: start}, nil
	}
	return Token{}, Errf(start, "unexpected character %q", string(c))
}

// Tokens lexes the whole input, for parser lookahead convenience.
func Tokens(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
