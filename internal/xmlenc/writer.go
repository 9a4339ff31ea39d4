package xmlenc

import (
	"fmt"
	"io"
	"strings"
)

// WriteOptions controls serialization.
type WriteOptions struct {
	// Indent, when non-empty, pretty-prints with the given unit (e.g. "  ").
	Indent string
	// Declaration, when true, emits an <?xml version="1.0"?> header.
	Declaration bool
}

// Write serializes the node (a document or any subtree) to w.
func Write(w io.Writer, n *Node, opt WriteOptions) error {
	bw := &errWriter{w: w}
	if opt.Declaration {
		bw.writeString(`<?xml version="1.0" encoding="UTF-8"?>`)
		if opt.Indent != "" {
			bw.writeString("\n")
		}
	}
	writeNode(bw, n, opt, 0)
	if opt.Indent != "" {
		bw.writeString("\n")
	}
	return bw.err
}

// String serializes the node to a string with the given options.
func String(n *Node, opt WriteOptions) string {
	var b strings.Builder
	_ = Write(&b, n, opt)
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) writeString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func writeNode(w *errWriter, n *Node, opt WriteOptions, depth int) {
	switch n.Kind {
	case KindDocument:
		first := true
		for _, c := range n.Children {
			if !first && opt.Indent != "" {
				w.writeString("\n")
			}
			writeNode(w, c, opt, depth)
			first = false
		}
	case KindElement:
		indent(w, opt, depth)
		w.writeString("<")
		w.writeString(n.Name)
		for _, a := range n.Attrs {
			w.writeString(" ")
			w.writeString(a.Name)
			w.writeString(`="`)
			w.writeString(EscapeAttr(a.Value))
			w.writeString(`"`)
		}
		if len(n.Children) == 0 {
			w.writeString("/>")
			return
		}
		w.writeString(">")
		// Mixed-content heuristic: if the element has any text child, write
		// children inline without indentation so round-trips preserve text.
		inline := false
		for _, c := range n.Children {
			if c.Kind == KindText {
				inline = true
				break
			}
		}
		if inline || opt.Indent == "" {
			for _, c := range n.Children {
				writeNode(w, c, WriteOptions{}, 0)
			}
		} else {
			for _, c := range n.Children {
				w.writeString("\n")
				writeNode(w, c, opt, depth+1)
			}
			w.writeString("\n")
			indent(w, opt, depth)
		}
		w.writeString("</")
		w.writeString(n.Name)
		w.writeString(">")
	case KindText:
		w.writeString(EscapeText(n.Value))
	case KindComment:
		indent(w, opt, depth)
		w.writeString("<!--")
		w.writeString(n.Value)
		w.writeString("-->")
	case KindPI:
		indent(w, opt, depth)
		w.writeString("<?")
		w.writeString(n.Name)
		if n.Value != "" {
			w.writeString(" ")
			w.writeString(n.Value)
		}
		w.writeString("?>")
	default:
		w.err = fmt.Errorf("xmlenc: cannot serialize node kind %d", n.Kind)
	}
}

func indent(w *errWriter, opt WriteOptions, depth int) {
	if opt.Indent == "" {
		return
	}
	for i := 0; i < depth; i++ {
		w.writeString(opt.Indent)
	}
}
