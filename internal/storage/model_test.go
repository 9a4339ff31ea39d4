package storage_test

import (
	"bytes"
	"errors"
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
			changes, overflow := db.DrainChanges()
			for _, ch := range changes {
				if ch.Kind == core.ChangeComplex || overflow {
					t.Fatalf("seed %d step %d: change log %+v (overflow %v) is not incremental", seed, step, changes, overflow)
				}
			}
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
			lines = append(lines, fmt.Sprintf("%s content %q count %d: %v", c, tc, s.CountContent(c, tc[0], tc[1]), ids(s.EqContent(c, tc[0], tc[1]))))
		}
	}
	for a := range attrs {
		lines = append(lines, fmt.Sprintf("attr %q: %v", a, s.EqAttr(a[0], a[1])))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestIndexesAgainstModel is the model test of the tag, content and
// attribute-value indexes: seeded inserts at the end of a color and under
// mid-tree parents, subtree deletes, content changes, renames (a full Load,
// as the serving layer does for them), attribute sets and removes, with
// Clones in between. After every step the store that absorbed the change
// must pass the invariant walker — every index equal to a brute-force model
// built from the start maps and the records, probes included — and answer
// exactly like a fresh Load; every frozen store must still answer as it did
// when it was frozen. Contents share prefixes ("Item 1", "Item 12") and one
// is another plus a suffix that starts with a zero byte, which puts its keys
// among the other's in the content index.
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
	for step := 0; step < 250; step++ {
		c := []core.Color{"red", "green"}[rng.Intn(2)]
		var in []*core.Node
		for _, n := range db.TreeNodes(c)[1:] {
			if n.Kind() == core.KindElement {
				in = append(in, n)
			}
		}
		pick := in[rng.Intn(len(in))]
		value := values[rng.Intn(len(values))]
		switch op := rng.Intn(9); op {
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
			if core.Parent(pick, c) != db.Document() {
				if err := db.Rename(pick, []string{"name", "tag", "label"}[rng.Intn(3)]); err != nil {
					t.Fatal(err)
				}
			}
		case 6, 7:
			must(db.SetAttribute(pick, []string{"id", "k"}[rng.Intn(2)], value))
		default:
			db.RemoveAttribute(pick, []string{"id", "k"}[rng.Intn(2)])
		}
		changes, overflow := db.DrainChanges()
		frozens = append(frozens, frozen{st, answers})
		st = st.Clone()
		if err := st.ApplyChanges(changes); errors.Is(err, storage.ErrDeltaUnsupported) && !overflow {
			if st, err = storage.Load(db, 0); err != nil { // a rename
				t.Fatal(err)
			}
		} else if err != nil || overflow {
			t.Fatalf("step %d: %v (overflow %v)", step, err, overflow)
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
}
