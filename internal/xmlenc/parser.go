package xmlenc

import (
	"fmt"
)

// Parse parses a complete XML document from src and returns its document
// node, comments and processing instructions included. Whitespace-only text
// between elements is preserved only when KeepWhitespace is set in
// ParseOptions; Parse uses the default of dropping it.
func Parse(src string) (*Node, error) {
	return ParseOptions(src, Options{})
}

// Options controls parsing behaviour.
type Options struct {
	// KeepWhitespace preserves whitespace-only text nodes. The default drops
	// them, matching the data-oriented usage in this repository.
	KeepWhitespace bool
}

// ParseOptions parses a complete XML document with explicit options.
func ParseOptions(src string, opt Options) (*Node, error) {
	lx := newLexer(src)
	doc := &Node{Kind: KindDocument}
	stack := []*Node{doc}
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		top := stack[len(stack)-1]
		switch tok.kind {
		case tokEOF:
			if len(stack) != 1 {
				return nil, &ParseError{Offset: tok.offset, Line: lx.line,
					Msg: fmt.Sprintf("unexpected end of input: <%s> not closed", top.Name)}
			}
			if doc.Root() == nil {
				return nil, &ParseError{Offset: tok.offset, Line: lx.line, Msg: "document has no root element"}
			}
			return doc, nil
		case tokStartTag:
			if len(stack) == 1 && doc.Root() != nil {
				return nil, &ParseError{Offset: tok.offset, Line: lx.line,
					Msg: fmt.Sprintf("second root element <%s>", tok.name)}
			}
			el := &Node{Kind: KindElement, Name: tok.name, Attrs: tok.attrs}
			top.Children = append(top.Children, el)
			if !tok.selfClose {
				stack = append(stack, el)
			}
		case tokEndTag:
			if len(stack) == 1 {
				return nil, &ParseError{Offset: tok.offset, Line: lx.line,
					Msg: fmt.Sprintf("unexpected </%s> at document level", tok.name)}
			}
			if top.Name != tok.name {
				return nil, &ParseError{Offset: tok.offset, Line: lx.line,
					Msg: fmt.Sprintf("mismatched end tag: </%s> closes <%s>", tok.name, top.Name)}
			}
			stack = stack[:len(stack)-1]
		case tokText:
			if len(stack) == 1 {
				if isSpace(tok.value) {
					continue // inter-element whitespace at document level
				}
				return nil, &ParseError{Offset: tok.offset, Line: lx.line, Msg: "character data at document level"}
			}
			if !opt.KeepWhitespace && isSpace(tok.value) {
				continue
			}
			// Merge adjacent text nodes (CDATA followed by text, etc.).
			if n := len(top.Children); n > 0 && top.Children[n-1].Kind == KindText {
				top.Children[n-1].Value += tok.value
				continue
			}
			top.Children = append(top.Children, &Node{Kind: KindText, Value: tok.value})
		case tokComment:
			top.Children = append(top.Children, &Node{Kind: KindComment, Value: tok.value})
		case tokPI:
			top.Children = append(top.Children, &Node{Kind: KindPI, Name: tok.name, Value: tok.value})
		}
	}
}

func isSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
