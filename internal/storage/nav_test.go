package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// navStore bulk-loads a small random two-colour database whose tags repeat
// at several depths (sec nests in sec), with some elements in one colour
// only.
func navStore(t *testing.T, rng *rand.Rand) *storage.Store {
	t.Helper()
	db := core.NewDatabase("red", "green")
	tags := []string{"sec", "sec", "par", "note"}
	var reds, greens []*core.Node
	for _, c := range []core.Color{"red", "green"} {
		root, err := db.AddElement(db.Document(), "root", c)
		if err != nil {
			t.Fatal(err)
		}
		if c == "red" {
			reds = append(reds, root)
		} else {
			greens = append(greens, root)
		}
	}
	for i := 0; i < 60; i++ {
		n, err := db.AddElementText(reds[rng.Intn(len(reds))], tags[rng.Intn(len(tags))], "red", fmt.Sprint("v", rng.Intn(5)))
		if err != nil {
			t.Fatal(err)
		}
		reds = append(reds, n)
		if rng.Intn(3) == 0 {
			if err := db.Adopt(greens[rng.Intn(len(greens))], n, "green"); err != nil {
				t.Fatal(err)
			}
			greens = append(greens, n)
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func colorNodes(t *testing.T, s *storage.Store, c core.Color) []storage.SNode {
	t.Helper()
	roots, err := s.Roots(c)
	if err != nil {
		t.Fatal(err)
	}
	var all []storage.SNode
	for _, r := range roots {
		sub, err := s.Subtree(r)
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, r), sub...)
	}
	return all
}

// refsOf drains a run of postings, a few refs at a time so that the run is
// resumed inside a leaf as well as between leaves.
func refsOf(p storage.Postings) []uint64 {
	var out []uint64
	for more := true; more; {
		more = false
		p.Next(func(refs []uint64) int {
			n := min(len(refs), 3)
			out, more = append(out, refs[:n]...), true
			return n
		})
	}
	return out
}

// checkNavigation compares the navigation primitives, for every node and
// tag, with answers filtered out of whole-colour scans, checks that every
// run of postings is in start order, that the page-by-page readers return what
// the record-by-record ones do, and that the per-tag child counts behind
// LeafTag are those of the tree as it stands.
func checkNavigation(t *testing.T, s *storage.Store) {
	t.Helper()
	for _, c := range s.Colors() {
		all := colorNodes(t, s, c)
		tagOf := map[storage.ElemID]string{}
		byTag := map[string][]storage.SNode{}
		byContent := map[[2]string][]storage.SNode{}
		byStart := map[int64]storage.ElemID{}
		var ids []storage.ElemID
		var contents []string
		for _, sn := range all {
			e, err := s.Elem(sn.Elem)
			if err != nil {
				t.Fatal(err)
			}
			tagOf[sn.Elem] = e.Tag
			byStart[sn.Start] = sn.Elem
			byTag[e.Tag] = append(byTag[e.Tag], sn)
			if e.Content != "" {
				k := [2]string{e.Tag, e.Content}
				byContent[k] = append(byContent[k], sn)
			}
			content, err := s.ContentOf(sn.Elem)
			if err != nil || content != e.Content {
				t.Fatalf("ContentOf(%d) = %q, %v; the record holds %q", sn.Elem, content, err, e.Content)
			}
			ids, contents = append(ids, sn.Elem), append(contents, content)
		}
		got := make([]string, len(ids))
		if err := s.ContentBytes(ids, func(i int, content []byte) { got[i] = string(content) }); err != nil || !reflect.DeepEqual(got, contents) {
			t.Fatalf("{%s} ContentBytes = %v, %v; want %v", c, got, err, contents)
		}
		inner := map[string]bool{}
		for _, sn := range all {
			if sn.ParentStart >= 0 {
				inner[tagOf[byStart[sn.ParentStart]]] = true
			}
		}
		for tag := range byTag {
			if s.LeafTag(c, tag) == inner[tag] {
				t.Fatalf("LeafTag({%s}%s) = %v, but the tree has a child under that tag: %v", c, tag, !inner[tag], inner[tag])
			}
		}
		resolve := func(refs []uint64) []storage.SNode {
			var out []storage.SNode
			for _, ref := range refs {
				sn, err := s.StructByRef(ref, c)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, sn)
			}
			batched := make([]storage.SNode, len(refs))
			if err := s.StructsByRef(batched, refs, c); err != nil || (len(refs) > 0 && !reflect.DeepEqual(batched, out)) {
				t.Fatalf("StructsByRef = %v, %v; record by record %v", batched, err, out)
			}
			return out
		}
		for tag, want := range byTag {
			if got := resolve(refsOf(s.TagPostings(c, tag))); !reflect.DeepEqual(got, want) {
				t.Fatalf("{%s}%s postings are not the tag's nodes in start order:\n got %v\nwant %v", c, tag, got, want)
			}
		}
		for k, want := range byContent {
			if got := resolve(refsOf(s.ContentPostings(c, k[0], k[1]))); !reflect.DeepEqual(got, want) {
				t.Fatalf("{%s}%s=%q postings are not in start order:\n got %v\nwant %v", c, k[0], k[1], got, want)
			}
		}
		for _, sn := range all {
			for tag := range byTag {
				is, err := s.TagIs(sn.Elem, tag)
				if err != nil || is != (tagOf[sn.Elem] == tag) {
					t.Fatalf("TagIs(%d, %s) = %v, %v; tag is %s", sn.Elem, tag, is, err, tagOf[sn.Elem])
				}
				for _, childOnly := range []bool{false, true} {
					var want, wantUp []storage.SNode
					for _, d := range all {
						if tagOf[d.Elem] != tag {
							continue
						}
						if sn.Contains(d) && (!childOnly || sn.IsParentOf(d)) {
							want = append(want, d)
						}
						if d.Contains(sn) && (!childOnly || d.IsParentOf(sn)) {
							wantUp = append(wantUp, d)
						}
					}
					got, err := s.AppendWithin(nil, tag, sn, childOnly)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("AppendWithin(%v, %s, child=%v) = %v, %v; want %v", sn, tag, childOnly, got, err, want)
					}
					got, err = s.AppendAncestors(nil, sn, tag, childOnly)
					if err != nil || !reflect.DeepEqual(got, wantUp) {
						t.Fatalf("AppendAncestors(%v, %s, parent=%v) = %v, %v; want %v", sn, tag, childOnly, got, err, wantUp)
					}
				}
			}
		}
	}
}

// TestNavigationUnderUpdates: the primitives a navigational join stands on —
// start-ordered postings, the containment range, parent hops by stored
// parent-start, the in-place tag check — hold on a bulk-loaded store and
// keep holding through leaf inserts in the middle of the tree, content
// updates, recolourings, deletions and
// the interval extensions and local relabellings that enough inserts force.
func TestNavigationUnderUpdates(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := navStore(t, rng)
		checkNavigation(t, s)
		epoch := s.StatsEpoch()
		var err error
		var frozen []*storage.Store // what s was cloned from, written no more
		for step := 0; step < 120; step++ {
			c := s.Colors()[rng.Intn(2)]
			all := colorNodes(t, s, c)
			sn := all[rng.Intn(len(all))]
			switch op := rng.Intn(10); {
			case op < 5:
				_, err = s.InsertLeafChild(sn, []string{"sec", "par", "note"}[rng.Intn(3)], fmt.Sprint("v", rng.Intn(5)), nil)
			case op < 8:
				err = s.UpdateContent(sn.Elem, fmt.Sprint("v", rng.Intn(5)))
			case op < 9:
				other := s.Colors()[0]
				if other == c {
					other = s.Colors()[1]
				}
				if _, in, _ := s.CrossTree(sn.Elem, other); !in {
					parents := colorNodes(t, s, other)
					_, err = s.AddColorTo(sn.Elem, parents[rng.Intn(len(parents))])
				}
			default:
				if sn.Level > 0 {
					err = s.DeleteSubtree(sn)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%10 == 9 {
				checkNavigation(t, s)
			}
			// The counts behind LeafTag travel with a clone (shared until one
			// side writes) and are rebuilt by a checkpoint reload.
			if step%40 == 39 {
				frozen = append(frozen, s)
				s = s.Clone()
				var image bytes.Buffer
				if err := s.WriteCheckpoint(&image); err != nil {
					t.Fatal(err)
				}
				reloaded, err := storage.ReadCheckpoint(&image)
				if err != nil {
					t.Fatal(err)
				}
				checkNavigation(t, reloaded)
			}
		}
		if s.StatsEpoch() == epoch {
			t.Fatal("structural updates left the stats epoch unchanged")
		}
		// Enough leaves under one leaf exhaust its interval: it is extended —
		// its end grows, or its siblings are relabelled around it — and parent
		// hops must follow the new parent-starts.
		leaf := colorNodes(t, s, "red")[0]
		for _, sn := range colorNodes(t, s, "red") {
			if sn.End-sn.Start < leaf.End-leaf.Start {
				leaf = sn
			}
		}
		before, orig := s.StatsEpoch(), leaf
		for i := 0; i < 12; i++ {
			if leaf, _, err = s.CrossTree(leaf.Elem, "red"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.InsertLeafChild(leaf, "note", "deep", nil); err != nil {
				t.Fatal(err)
			}
		}
		if leaf.End-leaf.Start <= orig.End-orig.Start {
			t.Fatalf("seed %d: 12 inserts under %v did not extend it (%v)", seed, orig, leaf)
		}
		if s.StatsEpoch() == before {
			t.Fatal("the inserts left the stats epoch unchanged")
		}
		checkNavigation(t, s)
		for _, f := range frozen {
			checkNavigation(t, f)
		}
	}
}

// TestParentHopAllocatesNothing: a parent hop is one integer seek of the
// color's start index and one record read, with nothing allocated — the
// step a navigational join takes per row.
func TestParentHopAllocatesNothing(t *testing.T) {
	s := navStore(t, rand.New(rand.NewSource(1)))
	var children []storage.SNode
	for _, sn := range colorNodes(t, s, "red") {
		if sn.ParentStart >= 0 {
			children = append(children, sn)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := s.ParentOf(children[i%len(children)]); !ok || err != nil {
			t.Fatalf("ParentOf(%+v) = %v, %v", children[i%len(children)], ok, err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("ParentOf allocates %v times per hop, want 0", allocs)
	}
}

// TestChildrenOfReadsOnlyTheChildren: ChildrenOf seeks child by child, so
// the root of a chain 2 000 deep costs what the root of a chain 20 deep
// does — one allocation, its one child — and not its subtree.
func TestChildrenOfReadsOnlyTheChildren(t *testing.T) {
	allocs := map[int]float64{}
	for _, depth := range []int{20, 2000} {
		db := core.NewDatabase("red")
		n := db.Document()
		for i := 0; i < depth; i++ {
			var err error
			if n, err = db.AddElement(n, "e", "red"); err != nil {
				t.Fatal(err)
			}
		}
		s, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots, err := s.Roots("red")
		if err != nil || len(roots) != 1 {
			t.Fatalf("%d roots, %v", len(roots), err)
		}
		allocs[depth] = testing.AllocsPerRun(20, func() {
			if children, err := s.ChildrenOf(roots[0]); err != nil || len(children) != 1 {
				t.Fatalf("%d children, %v", len(children), err)
			}
		})
	}
	if allocs[2000] != allocs[20] || allocs[2000] > 1 {
		t.Fatalf("ChildrenOf of a chain's root allocates %v times at depth 20 and %v at depth 2000, want at most 1 at both", allocs[20], allocs[2000])
	}
}

// TestStringValueReadsTheSubtree: AppendStringValue agrees with
// core.StringValue for every element in every colour whose subtree there
// holds no element with both text and a child, and is ErrMixedContent for
// the others; AttrBytes finds each attribute at its place in the record.
func TestStringValueReadsTheSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := core.NewDatabase("red", "green")
	var elems []*core.Node
	parents := map[core.Color][]*core.Node{"red": {db.Document()}, "green": {db.Document()}}
	for i := 0; i < 120; i++ {
		n, err := db.AddElement(parents["red"][rng.Intn(len(parents["red"]))], "e", "red")
		if err == nil && rng.Intn(3) == 0 {
			_, err = db.AppendText(n, fmt.Sprint("t", i, " "))
		}
		if err == nil && rng.Intn(3) == 0 {
			err = db.Adopt(parents["green"][rng.Intn(len(parents["green"]))], n, "green")
			parents["green"] = append(parents["green"], n)
		}
		for a := 0; err == nil && a < rng.Intn(3); a++ {
			_, err = db.SetAttribute(n, fmt.Sprint("a", a), fmt.Sprint("v", i, a))
		}
		if err != nil {
			t.Fatal(err)
		}
		parents["red"] = append(parents["red"], n)
		elems = append(elems, n)
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mixed func(n *core.Node, c core.Color) bool
	mixed = func(n *core.Node, c core.Color) bool {
		var kids []*core.Node
		for _, ch := range core.Children(n, c) {
			if ch.Kind() == core.KindElement {
				kids = append(kids, ch)
			}
		}
		if len(kids) > 0 && core.Text(n) != "" {
			return true
		}
		return slices.ContainsFunc(kids, func(k *core.Node) bool { return mixed(k, c) })
	}
	seen := map[bool]int{}
	for _, n := range elems {
		for _, c := range n.Colors() {
			got, err := s.AppendStringValue([]byte("x"), storage.ElemID(n.ID()), c)
			want, _ := core.StringValue(n, c)
			switch m := mixed(n, c); {
			case m && !errors.Is(err, storage.ErrMixedContent):
				t.Errorf("element %d in %s holds mixed content, read as %q, %v", n.ID(), c, got, err)
			case !m && (err != nil || string(got) != "x"+want):
				t.Errorf("element %d in %s reads as %q, %v, want %q", n.ID(), c, got, err, "x"+want)
			default:
				seen[m]++
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("checked %d mixed and %d other subtrees, want some of each", seen[true], seen[false])
	}

	ids := make([]storage.ElemID, len(elems))
	for i, n := range elems {
		ids[i] = storage.ElemID(n.ID())
	}
	for _, name := range []string{"a0", "a1"} {
		var got []string
		err := s.AttrBytes(ids, name, func(i, pos int, value []byte) {
			if a := elems[i].Attributes()[pos]; a.Name() != name || a.Value() != string(value) {
				t.Errorf("element %d: attribute %d is %s=%q, AttrBytes read %s=%q", ids[i], pos, a.Name(), a.Value(), name, value)
			}
			got = append(got, string(value))
		})
		var want []string
		for _, n := range elems {
			if a := n.Attribute(name); a != nil {
				want = append(want, a.Value())
			}
		}
		if err != nil || !slices.Equal(got, want) || len(want) == 0 {
			t.Errorf("AttrBytes(%s) = %q, %v, want %q", name, got, err, want)
		}
	}
}

// TestStringValuesInOnePass: StringValues visits every row once with
// what AppendStringValue reads for it, for rows in start order (nested ones
// included), a sparse few, and rows out of start order; a row with mixed
// content fails the call.
func TestStringValuesInOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := core.NewDatabase("red")
	parents := []*core.Node{db.Document()}
	for i := 0; i < 400; i++ {
		parent := parents[rng.Intn(len(parents))]
		n, err := db.AddElement(parent, "e", "red")
		if err == nil && (parent == db.Document() || core.Text(parent) == "") && rng.Intn(2) == 0 {
			_, err = db.AppendText(n, fmt.Sprint("t", i, " ")) // a leaf while it has no children
		} else if err == nil {
			parents = append(parents, n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range parents[len(parents)/2:] { // one element with text and children
		if len(core.Children(n, "red")) > 0 {
			if _, err := db.AppendText(n, "mixed"); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	var plain []storage.ElemID // in start order, those without mixed content
	var mixed storage.ElemID
	for _, n := range db.TreeNodes("red")[1:] {
		if n.Kind() != core.KindElement {
			continue
		}
		if _, err := s.AppendStringValue(nil, storage.ElemID(n.ID()), "red"); err != nil {
			mixed = storage.ElemID(n.ID())
			continue
		}
		plain = append(plain, storage.ElemID(n.ID()))
	}
	reversed := slices.Clone(plain)
	slices.Reverse(reversed)
	shuffled := slices.Clone(plain)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	roots, err := s.Roots("red")
	if err != nil {
		t.Fatal(err)
	}
	var top []storage.ElemID
	for _, r := range roots {
		if slices.Contains(plain, r.Elem) {
			top = append(top, r.Elem)
		}
	}
	for name, ids := range map[string][]storage.ElemID{
		"all": plain, "top": top, "sparse": {plain[3], plain[len(plain)/2], plain[len(plain)-1]},
		"reversed": reversed, "shuffled": shuffled, "one": plain[7:8],
	} {
		got := make([]string, len(ids))
		seen := make([]int, len(ids))
		err := s.StringValues(ids, "red", func(i int, value []byte) {
			got[i] = string(value)
			seen[i]++
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range ids {
			want, _ := s.AppendStringValue(nil, id, "red")
			if got[i] != string(want) || seen[i] != 1 {
				t.Fatalf("%s: row %d (element %d) read %d times as %q, want %q once", name, i, id, seen[i], got[i], want)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("the tree holds no element with mixed content")
	}
	if err := s.StringValues(append(slices.Clone(top), mixed), "red", func(int, []byte) {}); !errors.Is(err, storage.ErrMixedContent) {
		t.Fatalf("rows with a mixed one: %v, want ErrMixedContent", err)
	}
}
