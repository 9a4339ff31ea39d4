package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
)

// numbering reads the counters of number.go: ends grown, sibling runs
// relabelled, records those relabels rewrote.
func numbering() (grows, relabels uint64, relabelled int64) {
	snap := obs.Default.Snapshot()
	return snap.Counters["storage_interval_grows_total"], snap.Counters["storage_relabels_total"],
		snap.Histograms["storage_relabel_nodes"].Sum
}

// describe renders everything a reader can ask a store about structure, by
// element id and in the order the store answers: per color of colors the whole tree
// (Subtree of the document), every node's ChildrenOf, and for every tag and
// (tag, content) in it the ScanTag and EqContent lists and LeafTag. Two
// stores of one state describe alike whatever their interval numbers.
func describe(t *testing.T, s *storage.Store, colors []core.Color) string {
	t.Helper()
	var b strings.Builder
	ids := func(nodes []storage.SNode, err error) []storage.ElemID {
		if err != nil {
			t.Fatal(err)
		}
		out := make([]storage.ElemID, len(nodes))
		for i, sn := range nodes {
			out[i] = sn.Elem
		}
		return out
	}
	for _, c := range colors {
		doc, _ := s.Document(c)
		all, err := s.Subtree(doc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s roots %v\n", c, ids(s.ChildrenOf(doc)))
		tags, contents := map[string]bool{}, map[[2]string]bool{}
		for _, sn := range all {
			e, err := s.Elem(sn.Elem)
			if err != nil {
				t.Fatal(err)
			}
			tags[e.Tag] = true
			contents[[2]string{e.Tag, e.Content}] = true
			fmt.Fprintf(&b, "%s %d level %d <%s>%q %v children %v\n", c, sn.Elem, sn.Level, e.Tag, e.Content, e.Attrs, ids(s.ChildrenOf(sn)))
		}
		var lines []string
		for tag := range tags {
			lines = append(lines, fmt.Sprintf("%s tag %s leaf %v: %v", c, tag, s.LeafTag(c, tag), ids(s.ScanTag(c, tag))))
		}
		for tc := range contents {
			lines = append(lines, fmt.Sprintf("%s content %q: %v", c, tc, ids(s.EqContent(c, tc[0], tc[1]))))
		}
		sort.Strings(lines)
		b.WriteString(strings.Join(lines, "\n") + "\n")
	}
	return b.String()
}

// TestInsertsAgainstLoad is the model test of the numbering rule: random
// appends, leaves under mid-tree parents (200 of them under one), adoptions
// into the other color, subtree deletions and whole-subtree arrivals go
// through the core change log into a clone of the store, which after every
// step must answer exactly like a fresh Load of the same core state and pass
// the invariant walker — as must the frozen store it was cloned from, still
// answering for the step before, and a checkpoint reload.
func TestInsertsAgainstLoad(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grows0, relabels0, _ := numbering()
		db := core.NewDatabase("red", "green")
		must := func(n *core.Node, err error) *core.Node {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		catalog := must(db.AddElement(db.Document(), "catalog", "red"))
		must(db.AddElement(db.Document(), "featured", "green"))
		for k := 0; k < 40; k++ {
			item := must(db.AddElement(catalog, "item", "red"))
			must(db.AddElementText(item, "name", "red", fmt.Sprint("Item ", k)))
		}
		st, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		db.DrainChanges()
		answers := describe(t, st, db.Colors()) // what st answers, kept for when it is frozen
		elements := func(c core.Color) []*core.Node {
			var out []*core.Node
			for _, n := range db.TreeNodes(c)[1:] {
				if n.Kind() == core.KindElement {
					out = append(out, n)
				}
			}
			return out
		}
		var hot *core.Node // the parent that takes 200 leaves in a row
		hotLeft := 0
		for step := 0; step < 300; step++ {
			c := []core.Color{"red", "green"}[rng.Intn(2)]
			in := elements(c)
			pick := func() *core.Node { return in[rng.Intn(len(in))] }
			op := rng.Intn(10)
			if step == 50 {
				hot, hotLeft = elements("red")[len(elements("red"))/2], 200
			}
			if hotLeft > 0 {
				hotLeft--
				must(db.AddElementText(hot, "tag", "red", fmt.Sprint("t", hotLeft%7)))
			} else {
				switch {
				case op < 2: // append to a root
					must(db.AddElementText(core.Children(db.Document(), c)[0], "item", c, fmt.Sprint("v", rng.Intn(5))))
				case op < 5: // a leaf somewhere
					must(db.AddElementText(pick(), []string{"tag", "note", "name"}[rng.Intn(3)], c, fmt.Sprint("v", rng.Intn(5))))
				case op < 6: // a new root
					must(db.AddElement(db.Document(), "extra", c))
				case op < 7: // adopt into the other color
					other := core.Color("green")
					if c == other {
						other = "red"
					}
					if n := pick(); !n.HasColor(other) {
						into := elements(other)
						if err := db.Adopt(into[rng.Intn(len(into))], n, other); err != nil {
							t.Fatal(err)
						}
					}
				case op < 8: // delete a subtree
					if n := pick(); len(in) > 20 && n != hot && core.Parent(n, c) != db.Document() {
						if err := db.DeleteSubtree(n, c); err != nil {
							t.Fatal(err)
						}
						if hot != nil && db.NodeByID(hot.ID()) == nil {
							hot = nil
						}
					}
				default: // a subtree built detached arrives at once
					top := must(db.NewElement("item", c))
					for i, n := 0, 1+rng.Intn(4); i < n; i++ {
						mid := must(db.AddElementText(top, "part", c, fmt.Sprint("p", i)))
						if rng.Intn(2) == 0 {
							must(db.AddElementText(mid, "name", c, "deep"))
						}
					}
					if err := db.Append(pick(), top, c); err != nil {
						t.Fatal(err)
					}
				}
			}
			changes := db.DrainChanges()
			frozen, before := st, answers
			st = frozen.Clone()
			if err := st.ApplyChanges(changes); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := storage.Load(db, 0)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, s *storage.Store, want string) {
				t.Helper()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d, %s: %v", seed, step, what, err)
				}
				if got := describe(t, s, db.Colors()); got != want {
					t.Fatalf("seed %d step %d: %s answers\n%s\nwant\n%s", seed, step, what, got, want)
				}
			}
			answers = describe(t, want, db.Colors())
			check("the clone", st, answers)
			check("the frozen parent", frozen, before)
			if step%50 == 49 {
				var image bytes.Buffer
				if err := st.WriteCheckpoint(&image); err != nil {
					t.Fatal(err)
				}
				reloaded, err := storage.ReadCheckpoint(&image)
				if err != nil {
					t.Fatal(err)
				}
				check("the checkpoint reload", reloaded, answers)
			}
		}
		if grows, relabels, _ := numbering(); grows == grows0 || relabels == relabels0 {
			t.Fatalf("seed %d: %d ends grown and %d runs relabelled: the schedule missed one", seed, grows-grows0, relabels-relabels0)
		} else {
			t.Logf("seed %d: %d ends grown, %d runs relabelled", seed, grows-grows0, relabels-relabels0)
		}
	}
}

// indexAnswers renders what the tag, content and attribute-value indexes
// answer, by element id: per color of colors and tag the ScanTag list, its count and
// LeafTag; per (tag, content) the EqContent list and its count; per
// attribute the EqAttr list. Two stores of one state answer alike whatever
// their interval numbers.
func indexAnswers(t *testing.T, s *storage.Store, colors []core.Color) string {
	t.Helper()
	var lines []string
	ids := func(nodes []storage.SNode, err error) []storage.ElemID {
		if err != nil {
			t.Fatal(err)
		}
		out := make([]storage.ElemID, len(nodes))
		for i, sn := range nodes {
			out[i] = sn.Elem
		}
		return out
	}
	attrs := map[[2]string]bool{}
	for _, c := range colors {
		doc, _ := s.Document(c)
		tags, contents := map[string]bool{}, map[[2]string]bool{}
		for _, id := range ids(s.Subtree(doc)) {
			e, err := s.Elem(id)
			if err != nil {
				t.Fatal(err)
			}
			tags[e.Tag] = true
			contents[[2]string{e.Tag, e.Content}] = true
			for _, a := range e.Attrs {
				attrs[a] = true
			}
		}
		for tag := range tags {
			lines = append(lines, fmt.Sprintf("%s tag %s count %d leaf %v: %v", c, tag, s.CountTag(c, tag), s.LeafTag(c, tag), ids(s.ScanTag(c, tag))))
		}
		for tc := range contents {
			lines = append(lines, fmt.Sprintf("%s content %q count %d: %v", c, tc, s.CountRun(c, tc[0], tc[1]).N, ids(s.EqContent(c, tc[0], tc[1]))))
		}
	}
	for a := range attrs {
		lines = append(lines, fmt.Sprintf("attr %q: %v", a, s.EqAttr(a[0], a[1])))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestIndexesAgainstModel is the model test of the tag, content and
// attribute-value indexes: seeded inserts at the end of a color, under
// mid-tree parents and before a sibling, adoptions into the other color,
// subtree deletes, content changes, element renames, attribute sets and
// removes, with Clones in between. Every step applies incrementally. After
// it the store that absorbed the change must pass the invariant walker —
// every index equal to a brute-force model built from the start maps and the
// records, probes included — and answer exactly like a fresh Load; every
// frozen store must still answer as it did when it was frozen. Contents share
// prefixes ("Item 1", "Item 12") and one is another plus a suffix that starts
// with a zero byte, which puts its keys among the other's in the content
// index. The schedule must rename a leaf, an element with element children
// and a multi-color one, and insert before a multi-color sibling.
func TestIndexesAgainstModel(t *testing.T) {
	values := []string{"Item 1", "Item 12", "Item 123", "Item 1\x00\x00\x00\x00\x00\x00\x00\x00\x07", "Item 1\x00", "v", ""}
	rng := rand.New(rand.NewSource(11))
	db := core.NewDatabase("red", "green")
	must := func(n *core.Node, err error) *core.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	catalog := must(db.AddElement(db.Document(), "catalog", "red"))
	must(db.AddElement(db.Document(), "featured", "green"))
	for k := 0; k < 30; k++ {
		item := must(db.AddElement(catalog, "item", "red"))
		must(db.AddElementText(item, "name", "red", values[k%len(values)]))
	}
	st, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.DrainChanges()
	type frozen struct {
		s    *storage.Store
		want string
	}
	var frozens []frozen
	answers := indexAnswers(t, st, db.Colors())
	reached := map[string]int{} // the cases the schedule must reach, by name
	for step := 0; step < 250; step++ {
		c := []core.Color{"red", "green"}[rng.Intn(2)]
		in := elementsOf(db, c)
		pick := in[rng.Intn(len(in))]
		value := values[rng.Intn(len(values))]
		switch op := rng.Intn(12); op {
		case 0: // at the end of the color
			must(db.AddElementText(core.Children(db.Document(), c)[0], "item", c, value))
		case 1, 2: // under a parent in the middle
			must(db.AddElementText(pick, []string{"name", "tag", "item"}[rng.Intn(3)], c, value))
		case 3:
			if len(in) > 20 && core.Parent(pick, c) != db.Document() {
				if err := db.DeleteSubtree(pick, c); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(core.Children(pick, c)) == 0 {
				if err := db.SetText(pick, value); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			switch {
			case len(pick.Colors()) > 1:
				reached["rename a multi-color element"]++
			case len(elementChildren(pick, c)) > 0:
				reached["rename an element with element children"]++
			default:
				reached["rename a leaf"]++
			}
			if err := db.Rename(pick, []string{"name", "tag", "label", "item"}[rng.Intn(4)]); err != nil {
				t.Fatal(err)
			}
		case 6, 7:
			must(db.SetAttribute(pick, []string{"id", "k"}[rng.Intn(2)], value))
		case 8:
			db.RemoveAttribute(pick, []string{"id", "k"}[rng.Intn(2)])
		case 9: // a leaf before a sibling: the siblings after it move
			parent, displaced, multi := core.Parent(pick, c), false, false
			for _, sib := range elementChildren(parent, c) {
				displaced = displaced || sib == pick
				multi = multi || displaced && len(sib.Colors()) > 1
			}
			if multi {
				reached["insert before a multi-color sibling"]++
			}
			leaf := must(db.NewElement([]string{"name", "tag", "item"}[rng.Intn(3)], c))
			if value != "" {
				must(db.AppendText(leaf, value))
			}
			if err := db.InsertBefore(parent, leaf, pick, c); err != nil {
				t.Fatal(err)
			}
		default: // adopt into the other color
			other := core.Color("green")
			if c == other {
				other = "red"
			}
			if !pick.HasColor(other) {
				into := elementsOf(db, other)
				if err := db.Adopt(into[rng.Intn(len(into))], pick, other); err != nil {
					t.Fatal(err)
				}
			}
		}
		changes := db.DrainChanges()
		frozens = append(frozens, frozen{st, answers})
		st = st.Clone()
		if err := st.ApplyChanges(changes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if answers = indexAnswers(t, fresh, db.Colors()); indexAnswers(t, st, db.Colors()) != answers {
			t.Fatalf("step %d: the store answers\n%s\na fresh Load\n%s", step, indexAnswers(t, st, db.Colors()), answers)
		}
		if step%25 == 24 {
			for _, f := range frozens {
				if err := f.s.CheckInvariants(); err != nil {
					t.Fatalf("step %d, a frozen store: %v", step, err)
				}
			}
			f := frozens[rng.Intn(len(frozens))]
			if got := indexAnswers(t, f.s, db.Colors()); got != f.want {
				t.Fatalf("step %d: a frozen store answers\n%s\nnot as it did\n%s", step, got, f.want)
			}
		}
	}
	for _, what := range []string{"rename a leaf", "rename an element with element children",
		"rename a multi-color element", "insert before a multi-color sibling"} {
		if reached[what] == 0 {
			t.Errorf("the schedule did not %s", what)
		}
	}
	t.Logf("cases reached: %v", reached)
}

// elementsOf returns the elements of db's rooted tree c in document order.
func elementsOf(db *core.Database, c core.Color) []*core.Node {
	var out []*core.Node
	for _, n := range db.TreeNodes(c)[1:] {
		if n.Kind() == core.KindElement {
			out = append(out, n)
		}
	}
	return out
}

// elementChildren returns n's element children in c.
func elementChildren(n *core.Node, c core.Color) []*core.Node {
	var out []*core.Node
	for _, k := range core.Children(n, c) {
		if k.Kind() == core.KindElement {
			out = append(out, k)
		}
	}
	return out
}

// FuzzChangesAgainstLoad decodes its input, a byte pair per op, into updates
// of a small two-color database — append, insert-before, rename,
// delete-subtree, adopt (at the end or at a position) and set-text, in either
// color, on an element the second byte picks — and holds a clone that absorbs each update's change
// log to the invariant walker and to a fresh Load of the same state.
func FuzzChangesAgainstLoad(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 2, 8, 3, 10, 4})
	f.Add([]byte{9, 1, 2, 2, 3, 0, 4, 3, 5, 4, 10, 1, 11, 2, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := core.NewDatabase("red", "green")
		must := func(n *core.Node, err error) *core.Node {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		catalog := must(db.AddElement(db.Document(), "catalog", "red"))
		must(db.AddElement(db.Document(), "featured", "green"))
		for k := 0; k < 4; k++ {
			must(db.AddElementText(must(db.AddElement(catalog, "item", "red")), "name", "red", fmt.Sprint(k)))
		}
		st, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		db.DrainChanges()
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			c, other := core.Color("red"), core.Color("green")
			if ops[i]&1 == 1 {
				c, other = other, c
			}
			in, arg := elementsOf(db, c), int(ops[i+1])
			n, tag, parent := in[arg%len(in)], []string{"item", "name", "tag"}[arg%3], core.Parent(in[arg%len(in)], c)
			switch ops[i] >> 1 % 6 {
			case 0:
				must(db.AddElementText(n, tag, c, fmt.Sprint(arg)))
			case 1:
				err = db.InsertBefore(parent, must(db.NewElement(tag, c)), n, c)
			case 2:
				err = db.Rename(n, tag)
			case 3:
				if parent != db.Document() {
					err = db.DeleteSubtree(n, c)
				}
			case 4: // adopt, at the end or before the first element child
				if into := elementsOf(db, other); !n.HasColor(other) {
					p, ref := into[arg%len(into)], (*core.Node)(nil)
					if kids := elementChildren(p, other); len(kids) > 0 && arg&4 != 0 {
						ref = kids[0]
					}
					if err = db.AddColor(n, other); err == nil {
						err = db.InsertBefore(p, n, ref, other)
					}
				}
			case 5:
				err = db.SetText(n, fmt.Sprint("v", arg%4))
			}
			if err != nil {
				t.Fatal(err)
			}
			changes := db.DrainChanges()
			clone := st.Clone()
			if err := clone.ApplyChanges(changes); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := clone.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			fresh, err := storage.Load(db, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := describe(t, clone, db.Colors()), describe(t, fresh, db.Colors()); got != want {
				t.Fatalf("op %d: the clone answers\n%s\na fresh Load\n%s", i/2, got, want)
			}
			st = clone
		}
	})
}
