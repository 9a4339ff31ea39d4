package xmlenc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return doc
}

func TestParseSimple(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>hi</b><c/></a>`)
	root := doc.Root()
	if root == nil || root.Name != "a" {
		t.Fatalf("root = %+v", root)
	}
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if _, ok := root.Attr("y"); ok {
		t.Fatal("attr y should be absent")
	}
	b := root.Elements("b")
	if len(b) != 1 || len(b[0].Children) != 1 || b[0].Children[0].Value != "hi" {
		t.Fatalf("b = %+v", b)
	}
	if len(root.Elements("")) != 2 {
		t.Fatalf("element children = %d, want 2", len(root.Elements("")))
	}
	if len(root.Elements("c")) != 1 {
		t.Fatal("Elements(c)")
	}
}

func TestParseDeclarationAndDoctype(t *testing.T) {
	src := `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE movies [ <!ELEMENT x (y)> ]>
<movies><x><y>1</y></x></movies>`
	doc := mustParse(t, src)
	if doc.Root().Name != "movies" {
		t.Fatalf("root = %q", doc.Root().Name)
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	doc := mustParse(t, `<a b="&lt;&amp;&quot;&#65;&#x42;">x &amp; y<![CDATA[<raw> & stuff]]>z</a>`)
	root := doc.Root()
	if v, _ := root.Attr("b"); v != `<&"AB` {
		t.Fatalf("attr = %q", v)
	}
	// CDATA and adjacent text must be merged into one text node.
	if n := len(root.Children); n != 1 {
		t.Fatalf("children = %d, want merged 1", n)
	}
	if got := root.Children[0].Value; got != "x & y<raw> & stuffz" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc := mustParse(t, `<a><!-- remark --><b/></a>`)
	kids := doc.Root().Children
	if len(kids) != 2 || kids[0].Kind != KindComment || kids[0].Value != " remark " {
		t.Fatalf("children = %+v", kids)
	}
}

func TestParsePI(t *testing.T) {
	doc := mustParse(t, `<?xml-stylesheet href="x.css"?><a/>`)
	var pi *Node
	for _, c := range doc.Children {
		if c.Kind == KindPI {
			pi = c
		}
	}
	if pi == nil || pi.Name != "xml-stylesheet" || pi.Value != `href="x.css"` {
		t.Fatalf("pi = %+v", pi)
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>x</b>\n</a>"
	doc := mustParse(t, src)
	if len(doc.Root().Children) != 1 {
		t.Fatalf("whitespace-only text should be dropped: %+v", doc.Root().Children)
	}
	doc2, err := ParseOptions(src, Options{KeepWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc2.Root().Children) != 3 {
		t.Fatalf("with KeepWhitespace: %d children", len(doc2.Root().Children))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                       // no root
		`<a>`,                    // unclosed
		`</a>`,                   // end at top level
		`<a></b>`,                // mismatch
		`<a b=c></a>`,            // unquoted attr
		`<a b="1" b="2"></a>`,    // duplicate attr
		`<a b="1></a>`,           // unterminated attr value
		`<a>&unknown;</a>`,       // unknown entity
		`<a>&#xZZ;</a>`,          // bad char ref
		`<a><!-- foo </a>`,       // unterminated comment
		`<a><![CDATA[x</a>`,      // unterminated cdata
		`hello<a/>`,              // text at top level
		`<a b="<"></a>`,          // < in attribute
		`<1a/>`,                  // bad name
		`<a/><b/>` + `<a>text`,   // junk after root + unclosed
		`<?pi unterminated <a/>`, // unterminated PI
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("<a>\n<b>\n</c>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("message = %q", pe.Error())
	}
}

func TestWriteCompact(t *testing.T) {
	doc := mustParse(t, `<a x="1&amp;2"><b>hi &lt;there&gt;</b><c/></a>`)
	got := String(doc, WriteOptions{})
	want := `<a x="1&amp;2"><b>hi &lt;there&gt;</b><c/></a>`
	if got != want {
		t.Fatalf("compact output = %q, want %q", got, want)
	}
}

func TestWriteIndent(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b></a>`)
	got := String(doc, WriteOptions{Indent: "  ", Declaration: true})
	want := "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>\n  <b>\n    <c/>\n  </b>\n</a>\n"
	if got != want {
		t.Fatalf("indented output:\n%q\nwant:\n%q", got, want)
	}
}

func TestWriteMixedContentStaysInline(t *testing.T) {
	doc := mustParse(t, `<a>pre<b>x</b>post</a>`)
	got := String(doc, WriteOptions{Indent: "  "})
	if !strings.Contains(got, "pre<b>x</b>post") {
		t.Fatalf("mixed content must stay inline: %q", got)
	}
}

func TestSetAttr(t *testing.T) {
	n := &Node{Kind: KindElement, Name: "a"}
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	n.SetAttr("j", "3")
	if v, _ := n.Attr("k"); v != "2" {
		t.Fatalf("k = %q", v)
	}
	if len(n.Attrs) != 2 {
		t.Fatalf("attrs = %v", n.Attrs)
	}
}

func TestEscapeFunctions(t *testing.T) {
	if got := EscapeText(`a<b>&c`); got != "a&lt;b&gt;&amp;c" {
		t.Fatalf("EscapeText = %q", got)
	}
	if got := EscapeAttr("a\"b\nc\t<"); got != "a&quot;b&#10;c&#9;&lt;" {
		t.Fatalf("EscapeAttr = %q", got)
	}
	// Fast path: no escaping needed returns same string.
	if got := EscapeText("plain"); got != "plain" {
		t.Fatal("EscapeText fast path")
	}
}

func TestUnescapeErrors(t *testing.T) {
	// The last three are references to no XML Char (XML 1.0 §2.2): NUL, a
	// surrogate, and past U+10FFFF.
	for _, s := range []string{"&amp", "&bogus;", "&#xGG;", "&#abc;", "&#0;", "&#xD800;", "&#x110000;"} {
		if _, err := Unescape(s); err == nil {
			t.Errorf("Unescape(%q) should fail", s)
		}
	}
	if got, err := Unescape("&#x1F600;"); err != nil || got != "\U0001F600" {
		t.Fatalf("unicode ref = %q, %v", got, err)
	}
}

// randomTree builds a random XML tree for round-trip property testing.
func randomTree(rng *rand.Rand, depth int) *Node {
	el := &Node{Kind: KindElement, Name: randomName(rng)}
	for i := rng.Intn(3); i > 0; i-- {
		el.SetAttr(randomName(rng), randomText(rng))
	}
	n := rng.Intn(4)
	for i := 0; i < n; i++ {
		if depth > 0 && rng.Intn(2) == 0 {
			el.Children = append(el.Children, randomTree(rng, depth-1))
		} else if txt := randomText(rng); strings.TrimSpace(txt) != "" {
			el.Children = append(el.Children, NewText(txt))
		}
	}
	return el
}

func randomName(rng *rand.Rand) string {
	letters := "abcdefgh"
	n := 1 + rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[rng.Intn(len(letters))])
	}
	return b.String()
}

func randomText(rng *rand.Rand) string {
	chars := `ab &<>"'x 0`
	n := rng.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(chars[rng.Intn(len(chars))])
	}
	return b.String()
}

func equalTree(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !equalTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// normalizeText merges adjacent text children, since the parser merges them.
func normalizeText(n *Node) {
	var out []*Node
	for _, c := range n.Children {
		normalizeText(c)
		if c.Kind == KindText && len(out) > 0 && out[len(out)-1].Kind == KindText {
			out[len(out)-1].Value += c.Value
			continue
		}
		out = append(out, c)
	}
	n.Children = out
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng, 4)
		normalizeText(tree)
		doc := &Node{Kind: KindDocument, Children: []*Node{tree}}
		out := String(doc, WriteOptions{})
		back, err := ParseOptions(out, Options{KeepWhitespace: true})
		if err != nil {
			t.Logf("reparse failed for %q: %v", out, err)
			return false
		}
		return equalTree(doc, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
