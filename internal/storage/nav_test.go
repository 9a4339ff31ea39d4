package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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

// checkNavigation compares the navigation primitives, for every node and
// tag, with answers filtered out of whole-colour scans, checks that every
// posting list is in start order, that the page-by-page readers return what
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
			if got := resolve(s.TagRefs(c, tag)); !reflect.DeepEqual(got, want) {
				t.Fatalf("{%s}%s postings are not the tag's nodes in start order:\n got %v\nwant %v", c, tag, got, want)
			}
		}
		for k, want := range byContent {
			if got := resolve(s.ContentRefs(c, k[0], k[1])); !reflect.DeepEqual(got, want) {
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
					got, err := s.AppendWithin(nil, s.TagRefs(c, tag), sn, childOnly)
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
// start-ordered postings, the posting seek, parent hops by stored
// parent-start, the in-place tag check — hold on a bulk-loaded store and
// keep holding through leaf inserts in the middle of the tree (which used to
// append to the posting lists), content updates, recolourings, deletions and
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
				if _, in, _ := s.StructOf(sn.Elem, other); !in {
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
			if leaf, _, err = s.StructOf(leaf.Elem, "red"); err != nil {
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
