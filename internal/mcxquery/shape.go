package mcxquery

import (
	"encoding/binary"
	"sync"

	"colorfulxml/internal/pathexpr"
)

// AppendShape lexes src with the modal lexer of LexQuery and appends its
// shape to key and its literal tokens — strings, numbers and the text inside
// a direct constructor, in order — to args. The shape is the token stream
// with every literal reduced to its kind: one byte per token for its kind,
// followed, for a token whose text the kind does not fix (names, variables
// and constructor tags), by the text's length and bytes. A literal's ordinal
// is its position in args. So two texts with the same shape and the same
// arguments have the same tokens, and therefore the same parse; whitespace
// and comments are not part of either. Nothing is parsed: this is what lets a plan cache
// key a text by its shape before knowing whether it parses at all.
func AppendShape(key []byte, args []pathexpr.Token, src string) ([]byte, []pathexpr.Token, error) {
	sc := shapeScanners.Get().(*shapeScanner)
	key, args, err := sc.scan(key, args, src)
	*sc = shapeScanner{}
	shapeScanners.Put(sc)
	return key, args, err
}

// shapeScanner is the lexer state of one AppendShape, recycled: a scan of a
// query text on the plan cache's hit path allocates nothing of its own.
type shapeScanner struct {
	lx pathexpr.Lexer
	ml modalLexer
}

var shapeScanners = sync.Pool{New: func() any { return new(shapeScanner) }}

func (sc *shapeScanner) scan(key []byte, args []pathexpr.Token, src string) ([]byte, []pathexpr.Token, error) {
	sc.lx = *pathexpr.NewLexer(src)
	ml := &sc.ml
	*ml = modalLexer{lx: &sc.lx}
	ml.stack = append(ml.stack0[:0], frame{kind: fExpr})
	for {
		tok, err := ml.next()
		if err != nil {
			return key, args, err
		}
		switch tok.Kind {
		case pathexpr.TokEOF:
			if len(ml.stack) > 1 {
				return key, args, pathexpr.Errf(tok.Pos, "unterminated element constructor <%s>", ml.top().tag)
			}
			return key, args, nil
		case pathexpr.TokString, pathexpr.TokNumber, pathexpr.TokRawText:
			key = append(key, byte(tok.Kind))
			args = append(args, tok)
		case pathexpr.TokIdent, pathexpr.TokVar, pathexpr.TokTagOpen, pathexpr.TokTagEnd:
			key = append(key, byte(tok.Kind))
			key = binary.AppendUvarint(key, uint64(len(tok.Text)))
			key = append(key, tok.Text...)
		default:
			key = append(key, byte(tok.Kind))
		}
	}
}
