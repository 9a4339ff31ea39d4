package xmlenc

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenKind enumerates lexical token kinds.
type tokenKind uint8

const (
	tokStartTag tokenKind = iota // <name attr="v" ...> or <name ... />
	tokEndTag                    // </name>
	tokText                      // character data (entities resolved)
	tokComment                   // <!-- ... -->
	tokPI                        // <?target data?>
	tokEOF
)

// token is one lexical XML token.
type token struct {
	kind      tokenKind
	name      string
	value     string
	attrs     []Attr
	selfClose bool
	offset    int
}

// lexer tokenizes an XML byte stream.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) errf(format string, args ...any) error {
	return &ParseError{Offset: lx.pos, Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) eof() bool { return lx.pos >= len(lx.src) }

func (lx *lexer) peek() byte {
	if lx.eof() {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
	}
	return b
}

func (lx *lexer) skipSpace() {
	for !lx.eof() {
		switch lx.peek() {
		case ' ', '\t', '\r', '\n':
			lx.advance()
		default:
			return
		}
	}
}

func (lx *lexer) hasPrefix(p string) bool {
	return strings.HasPrefix(lx.src[lx.pos:], p)
}

func (lx *lexer) skip(n int) {
	for i := 0; i < n; i++ {
		lx.advance()
	}
}

func isNameStart(b byte) bool {
	return b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func isNameChar(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || (b >= '0' && b <= '9')
}

func (lx *lexer) name() (string, error) {
	if lx.eof() || !isNameStart(lx.peek()) {
		return "", lx.errf("expected name")
	}
	start := lx.pos
	for !lx.eof() && isNameChar(lx.peek()) {
		lx.advance()
	}
	return lx.src[start:lx.pos], nil
}

// next returns the next token, resolving entities in text and attribute
// values, skipping the XML declaration and DOCTYPE.
func (lx *lexer) next() (token, error) {
	for {
		if lx.eof() {
			return token{kind: tokEOF, offset: lx.pos}, nil
		}
		start := lx.pos
		if lx.peek() != '<' {
			return lx.text(start)
		}
		switch {
		case lx.hasPrefix("<!--"):
			return lx.comment(start)
		case lx.hasPrefix("<![CDATA["):
			return lx.cdata(start)
		case lx.hasPrefix("<!DOCTYPE"):
			if err := lx.skipDoctype(); err != nil {
				return token{}, err
			}
			continue
		case lx.hasPrefix("<?"):
			tok, err := lx.pi(start)
			if err != nil {
				return token{}, err
			}
			if strings.EqualFold(tok.name, "xml") {
				continue // XML declaration: skip
			}
			return tok, nil
		case lx.hasPrefix("</"):
			return lx.endTag(start)
		default:
			return lx.startTag(start)
		}
	}
}

func (lx *lexer) text(start int) (token, error) {
	raw := lx.pos
	for !lx.eof() && lx.peek() != '<' {
		lx.advance()
	}
	val, err := Unescape(lx.src[raw:lx.pos])
	if err != nil {
		return token{}, lx.errf("bad entity: %v", err)
	}
	return token{kind: tokText, value: val, offset: start}, nil
}

func (lx *lexer) comment(start int) (token, error) {
	lx.skip(4) // <!--
	idx := strings.Index(lx.src[lx.pos:], "-->")
	if idx < 0 {
		return token{}, lx.errf("unterminated comment")
	}
	val := lx.src[lx.pos : lx.pos+idx]
	lx.skip(idx + 3)
	return token{kind: tokComment, value: val, offset: start}, nil
}

func (lx *lexer) cdata(start int) (token, error) {
	lx.skip(9) // <![CDATA[
	idx := strings.Index(lx.src[lx.pos:], "]]>")
	if idx < 0 {
		return token{}, lx.errf("unterminated CDATA section")
	}
	val := lx.src[lx.pos : lx.pos+idx]
	lx.skip(idx + 3)
	return token{kind: tokText, value: val, offset: start}, nil
}

func (lx *lexer) skipDoctype() error {
	// Skip until the matching '>', tracking nested '[' ... ']' internal subset.
	depth := 0
	for !lx.eof() {
		switch lx.advance() {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
	return lx.errf("unterminated DOCTYPE")
}

func (lx *lexer) pi(start int) (token, error) {
	lx.skip(2) // <?
	target, err := lx.name()
	if err != nil {
		return token{}, err
	}
	idx := strings.Index(lx.src[lx.pos:], "?>")
	if idx < 0 {
		return token{}, lx.errf("unterminated processing instruction")
	}
	data := strings.TrimSpace(lx.src[lx.pos : lx.pos+idx])
	lx.skip(idx + 2)
	return token{kind: tokPI, name: target, value: data, offset: start}, nil
}

func (lx *lexer) endTag(start int) (token, error) {
	lx.skip(2) // </
	name, err := lx.name()
	if err != nil {
		return token{}, err
	}
	lx.skipSpace()
	if lx.eof() || lx.peek() != '>' {
		return token{}, lx.errf("malformed end tag </%s", name)
	}
	lx.advance()
	return token{kind: tokEndTag, name: name, offset: start}, nil
}

func (lx *lexer) startTag(start int) (token, error) {
	lx.advance() // <
	name, err := lx.name()
	if err != nil {
		return token{}, err
	}
	tok := token{kind: tokStartTag, name: name, offset: start}
	for {
		lx.skipSpace()
		if lx.eof() {
			return token{}, lx.errf("unterminated start tag <%s", name)
		}
		switch lx.peek() {
		case '>':
			lx.advance()
			return tok, nil
		case '/':
			lx.advance()
			if lx.eof() || lx.peek() != '>' {
				return token{}, lx.errf("malformed empty-element tag <%s", name)
			}
			lx.advance()
			tok.selfClose = true
			return tok, nil
		}
		aname, err := lx.name()
		if err != nil {
			return token{}, err
		}
		lx.skipSpace()
		if lx.eof() || lx.peek() != '=' {
			return token{}, lx.errf("attribute %s missing '='", aname)
		}
		lx.advance()
		lx.skipSpace()
		if lx.eof() || (lx.peek() != '"' && lx.peek() != '\'') {
			return token{}, lx.errf("attribute %s missing quoted value", aname)
		}
		quote := lx.advance()
		vstart := lx.pos
		for !lx.eof() && lx.peek() != quote {
			if lx.peek() == '<' {
				return token{}, lx.errf("'<' in attribute value of %s", aname)
			}
			lx.advance()
		}
		if lx.eof() {
			return token{}, lx.errf("unterminated attribute value for %s", aname)
		}
		raw := lx.src[vstart:lx.pos]
		lx.advance() // closing quote
		val, uerr := Unescape(raw)
		if uerr != nil {
			return token{}, lx.errf("bad entity in attribute %s: %v", aname, uerr)
		}
		for _, a := range tok.attrs {
			if a.Name == aname {
				return token{}, lx.errf("duplicate attribute %s", aname)
			}
		}
		tok.attrs = append(tok.attrs, Attr{Name: aname, Value: val})
	}
}

// Unescape resolves the five predefined XML entities and decimal/hex
// character references in s.
func Unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("unterminated entity at offset %d", i)
		}
		ent := s[i+1 : i+end]
		switch {
		case ent == "amp":
			b.WriteByte('&')
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "quot":
			b.WriteByte('"')
		case ent == "apos":
			b.WriteByte('\'')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			n, err := strconv.ParseUint(ent[2:], 16, 32)
			if err != nil || !isChar(n) {
				return "", fmt.Errorf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(n))
		case strings.HasPrefix(ent, "#"):
			n, err := strconv.ParseUint(ent[1:], 10, 32)
			if err != nil || !isChar(n) {
				return "", fmt.Errorf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(n))
		default:
			return "", fmt.Errorf("unknown entity &%s;", ent)
		}
		i += end + 1
	}
	return b.String(), nil
}

// isChar reports whether n is a character XML 1.0 allows (§2.2, Char).
func isChar(n uint64) bool {
	return n == 0x9 || n == 0xA || n == 0xD || 0x20 <= n && n <= 0xD7FF ||
		0xE000 <= n && n <= 0xFFFD || 0x10000 <= n && n <= 0x10FFFF
}

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// EscapeAttr escapes an attribute value for double-quoted serialization.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&<>\"\n\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		case '\n':
			b.WriteString("&#10;")
		case '\t':
			b.WriteString("&#9;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
