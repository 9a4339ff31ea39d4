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
// element id and in the order the store answers: per color the whole tree
// (Subtree of the document), every node's ChildrenOf, and for every tag and
// (tag, content) in it the ScanTag and EqContent lists and LeafTag. Two
// stores of one state describe alike whatever their interval numbers.
func describe(t *testing.T, s *storage.Store) string {
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
	for _, c := range s.Colors() {
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
		answers := describe(t, st) // what st answers, kept for when it is frozen
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
				if got := describe(t, s); got != want {
					t.Fatalf("seed %d step %d: %s answers\n%s\nwant\n%s", seed, step, what, got, want)
				}
			}
			answers = describe(t, want)
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
