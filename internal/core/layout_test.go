package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
)

// TestNodeSize: a node is 80 bytes, an allocator size class of its own, with
// its kind in the top byte of its id word, its colors in a slice rather than
// a map and its attributes in the database's attribute table.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(core.Node{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(core.Node{}) = %d, want 80", got)
	}
}

// TestHeapBytesPerElement pins what core holds per element of the benchmark's
// catalog shape (20 000 items: 46 669 elements, a third of the items in two
// colors, 26 667 text nodes): 225 bytes measured on linux/amd64 with Go 1.24,
// against 250 with an 88-byte node (in the 96-byte size class) and 564 with a
// map per node.
func TestHeapBytesPerElement(t *testing.T) {
	const items = 20000
	before := heapLive()
	c := fixtures.NewCatalog(items)
	after := heapLive()
	elems := c.DB.ComputeStats().Elements
	runtime.KeepAlive(c)
	if got, limit := (after-before)/uint64(elems), uint64(225*11/10); got > limit {
		t.Fatalf("core holds %d bytes per element of the catalog, want at most %d", got, limit)
	}
}

func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRemoveMiddleColor: with three colors, removing the middle one leaves
// the other two trees' parents and children as they were and the colors
// sorted, and the color can be added back and attached again.
func TestRemoveMiddleColor(t *testing.T) {
	db := core.NewDatabase(red, green, blue)
	doc := db.Document()
	n := db.MustElement("n", blue)
	for _, c := range []core.Color{red, green} {
		if err := db.AddColor(n, c); err != nil {
			t.Fatal(err)
		}
	}
	parents := map[core.Color]*core.Node{}
	for _, c := range []core.Color{blue, green, red} {
		p, err := db.AddElement(doc, "p", c)
		if err != nil {
			t.Fatal(err)
		}
		parents[c] = p
		if err := db.Append(p, n, c); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElement(n, "child", c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AppendText(n, "x"); err != nil {
		t.Fatal(err)
	}
	children := map[core.Color][]*core.Node{}
	for _, c := range []core.Color{blue, red} {
		children[c] = append([]*core.Node(nil), core.Children(n, c)...)
	}
	if got := n.Colors(); !reflect.DeepEqual(got, []core.Color{blue, green, red}) {
		t.Fatalf("Colors() = %v, want sorted blue, green, red", got)
	}

	if err := db.RemoveColor(n, green); err != nil {
		t.Fatal(err)
	}
	if got := n.Colors(); !reflect.DeepEqual(got, []core.Color{blue, red}) {
		t.Fatalf("after RemoveColor(green): Colors() = %v, want blue, red", got)
	}
	for _, c := range []core.Color{blue, red} {
		if p := core.Parent(n, c); p != parents[c] {
			t.Errorf("parent in %s = %v, want %v", c, p, parents[c])
		}
		if got := core.Children(n, c); !reflect.DeepEqual(got, children[c]) {
			t.Errorf("children in %s = %v, want %v", c, got, children[c])
		}
	}
	if core.Parent(n, green) != nil || len(core.Children(parents[green], green)) != 0 {
		t.Fatal("node still linked in the removed color")
	}

	if err := db.AddColor(n, green); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(parents[green], n, green); err != nil {
		t.Fatal(err)
	}
	if got := n.Colors(); !reflect.DeepEqual(got, []core.Color{blue, green, red}) {
		t.Fatalf("after AddColor(green): Colors() = %v", got)
	}
	if got := core.Text(n); got != "x" || len(core.Children(n, green)) != 1 {
		t.Fatalf("re-added color carries %d children, text %q; want the text child alone", len(core.Children(n, green)), got)
	}
	// The green child of the first attachment is a detached fragment now.
	for _, ch := range core.Children(parents[green], green) {
		if ch != n {
			t.Fatalf("unexpected green child %v", ch)
		}
	}
}
