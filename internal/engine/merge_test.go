package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
)

// TestStructJoinMergeMatchesIndex: on start-ordered inputs the stack-tree
// merge produces exactly the rows of the interval-index join, in its order
// (and, over scans, with its structJoins count) — both axes, ancestor sides
// that repeat a node (adjacent rows, two columns wide) and nest (sec in sec),
// descendant sides that repeat one, empty sides — and both agree with a
// brute-force enumeration of every pair.
func TestStructJoinMergeMatchesIndex(t *testing.T) {
	tags := []string{"sec", "par", "note", "nosuch"}
	for seed := int64(1); seed <= 6; seed++ {
		s := navStore(t, seed)
		for _, c := range []core.Color{"red", "green"} {
			scan := func(tag string) engine.Op { return &engine.ScanTag{Color: c, Tag: tag} }
			// Every node once per sec ancestor, that ancestor in column 0:
			// duplicates in column 1, adjacent and in start order.
			dups := func(tag string) engine.Op {
				return &engine.StructJoin{Anc: scan("sec"), Desc: scan(tag), Axis: engine.AncestorDescendant}
			}
			for _, anc := range tags {
				for _, desc := range tags {
					for _, axis := range []engine.Axis{engine.AncestorDescendant, engine.ParentChild} {
						for name, mk := range map[string]func(merge bool) *engine.StructJoin{
							"scans": func(m bool) *engine.StructJoin {
								return &engine.StructJoin{Anc: scan(anc), Desc: scan(desc), Axis: axis, Merge: m}
							},
							"repeated ancestors": func(m bool) *engine.StructJoin {
								return &engine.StructJoin{Anc: dups(anc), AncCol: 1, Desc: scan(desc), Axis: axis, Merge: m}
							},
							"repeated descendants": func(m bool) *engine.StructJoin {
								return &engine.StructJoin{Anc: scan(anc), Desc: dups(desc), DescCol: 1, Axis: axis, Merge: m}
							},
						} {
							want, wm := run(t, s, mk(false))
							got, gm := run(t, s, mk(true))
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("seed %d {%s} %s %s/%s axis %d: merge returns %d rows, the index %d, or the order differs",
									seed, c, name, anc, desc, axis, len(got), len(want))
							}
							// (Over a join the total also counts the input's
							// own pairs, which a merge that runs out of
							// descendants never asks for.)
							if name != "scans" {
								continue
							}
							if gm.StructJoins != wm.StructJoins {
								t.Fatalf("seed %d {%s} %s/%s: merge counts %d structural joins, the index %d", seed, c, anc, desc, gm.StructJoins, wm.StructJoins)
							}
							ancs, _ := s.ScanTag(c, anc)
							descs, _ := s.ScanTag(c, desc)
							ref := allPairs(ancs, descs, axis)
							if len(ref) != len(got) {
								t.Fatalf("brute force finds %d pairs, the operator %d", len(ref), len(got))
							}
							for i, p := range ref {
								if got[i][0] != p[0] || got[i][1] != p[1] {
									t.Fatalf("pair %d: operator %v, brute force %v", i, got[i], p)
								}
							}
						}
					}
				}
			}
		}
	}
}

// allPairs tests every (ancestor, descendant) pair of two start-ordered
// lists: the pairs that satisfy the axis, by descendant and, for one
// descendant, outermost ancestor first.
func allPairs(ancs, descs []storage.SNode, axis engine.Axis) [][2]storage.SNode {
	var out [][2]storage.SNode
	for _, d := range descs {
		for _, a := range ancs {
			inside := a.Start < d.Start && d.End < a.End
			if inside && (axis == engine.AncestorDescendant || d.ParentStart == a.Start && d.Level == a.Level+1) {
				out = append(out, [2]storage.SNode{a, d})
			}
		}
	}
	return out
}

// TestQuickStructuralAgainstNaive cross-checks both StructJoin algorithms
// against the quadratic pair enumeration on random trees of two tags.
func TestQuickStructuralAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := core.NewDatabase("c")
		attached := []*core.Node{db.Document()}
		for i := 0; i < 80; i++ {
			n, err := db.AddElement(attached[rng.Intn(len(attached))], []string{"a", "b"}[rng.Intn(2)], "c")
			if err != nil {
				t.Fatal(err)
			}
			attached = append(attached, n)
		}
		s, err := storage.Load(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		as, _ := s.ScanTag("c", "a")
		bs, _ := s.ScanTag("c", "b")
		for _, axis := range []engine.Axis{engine.AncestorDescendant, engine.ParentChild} {
			want := allPairs(as, bs, axis)
			for _, merge := range []bool{false, true} {
				got, _ := run(t, s, &engine.StructJoin{
					Anc: &engine.ScanTag{Color: "c", Tag: "a"}, Desc: &engine.ScanTag{Color: "c", Tag: "b"},
					Axis: axis, Merge: merge,
				})
				if len(got) != len(want) {
					t.Logf("axis %d merge=%v: %d rows, brute force %d (seed %d)", axis, merge, len(got), len(want), seed)
					return false
				}
				for i, p := range want {
					if got[i][0] != p[0] || got[i][1] != p[1] {
						t.Logf("axis %d merge=%v: row %d is %v, brute force %v (seed %d)", axis, merge, i, got[i], p, seed)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStructJoinMergeAcrossBatches: ancestors and descendants both span
// several batches, and one descendant run overflows the output batch.
func TestStructJoinMergeAcrossBatches(t *testing.T) {
	const n = 2*engine.BatchSize + 300
	s := bigStore(t, n)
	for _, merge := range []bool{false, true} {
		// item under lib: n pairs from a one-row ancestor side.
		rows, m := run(t, s, &engine.StructJoin{
			Anc: &engine.ScanTag{Color: "red", Tag: "lib"}, Desc: &engine.ScanTag{Color: "red", Tag: "item"},
			Axis: engine.ParentChild, Merge: merge,
		})
		if len(rows) != n || m.StructJoins != n {
			t.Fatalf("merge=%v: %d rows, %d joins, want %d", merge, len(rows), m.StructJoins, n)
		}
		// item self-join: nothing contains itself.
		rows, _ = run(t, s, &engine.StructJoin{
			Anc: &engine.ScanTag{Color: "red", Tag: "item"}, Desc: &engine.ScanTag{Color: "red", Tag: "item"},
			Axis: engine.AncestorDescendant, Merge: merge,
		})
		if len(rows) != 0 {
			t.Fatalf("merge=%v: items contain items: %d rows", merge, len(rows))
		}
	}
}

// TestDedupOrderedAndSorting: both duplicate eliminations keep each element's
// first row in input order; the ordered one needs its input sorted on the
// column, the sorting one takes any order — including ids far apart, which
// cost it nothing.
func TestDedupOrderedAndSorting(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := navStore(t, seed)
		scan := func(tag string) engine.Op { return &engine.ScanTag{Color: "red", Tag: tag} }
		// Column 1 repeats nodes, adjacent and in start order; column 0 (the
		// sec ancestors, outermost first per descendant) repeats them in no
		// order at all.
		dups := func() engine.Op {
			return &engine.StructJoin{Anc: scan("sec"), Desc: scan("par"), Axis: engine.AncestorDescendant}
		}
		first := func(rows []engine.Row, col int) []string {
			seen := map[storage.ElemID]bool{}
			var out []string
			for _, r := range rows {
				if !seen[r[col].Elem] {
					seen[r[col].Elem] = true
					out = append(out, fmt.Sprint(r))
				}
			}
			return out
		}
		all, _ := run(t, s, dups())
		for _, col := range []int{0, 1} {
			want := first(all, col)
			got, _ := run(t, s, &engine.Dedup{Input: dups(), Col: col})
			if fmt.Sprint(rowStrings(got)) != fmt.Sprint(want) {
				t.Fatalf("seed %d: sorting Dedup on col %d keeps %d rows, want %d first occurrences in order", seed, col, len(got), len(want))
			}
		}
		got, _ := run(t, s, &engine.Dedup{Input: dups(), Col: 1, Ordered: true})
		if want := first(all, 1); fmt.Sprint(rowStrings(got)) != fmt.Sprint(want) {
			t.Fatalf("seed %d: ordered Dedup keeps %d rows, want %d", seed, len(got), len(want))
		}
		if len(all) == len(first(all, 1)) {
			t.Fatalf("seed %d: the input has no duplicates to eliminate", seed)
		}
	}
}

func rowStrings(rows []engine.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestExecColumn: the references of one column, in row order, sized once;
// traced, the same answer plus one span per operator.
func TestExecColumn(t *testing.T) {
	const n = 2*engine.BatchSize + 300
	s := bigStore(t, n)
	want, _ := run(t, s, &engine.ScanTag{Color: "red", Tag: "item"})
	plan := func() engine.Op {
		return &engine.StructJoin{
			Anc: &engine.ScanTag{Color: "red", Tag: "lib"}, Desc: &engine.ScanTag{Color: "red", Tag: "item"},
			Axis: engine.ParentChild, Merge: true,
		}
	}
	for _, hint := range []int{0, n, 10 * n} {
		for _, traced := range []bool{false, true} {
			var span *obs.Span
			if traced {
				span = obs.NewSpan("execute")
			}
			ids, m, err := engine.ExecColumn(context.Background(), s, &engine.MemPool{}, plan(), 1, hint, span)
			if err != nil || len(ids) != n || m.RowsOut != n {
				t.Fatalf("hint %d traced %v: %d ids, %+v, %v", hint, traced, len(ids), m, err)
			}
			for i, id := range ids {
				if id != want[i][0].Elem {
					t.Fatalf("id %d is %d, want %d", i, id, want[i][0].Elem)
				}
			}
			if hint == n && cap(ids) != n {
				t.Fatalf("an exact hint should size the answer exactly: cap %d for %d rows", cap(ids), n)
			}
			if traced {
				span.End()
				if kids := span.Children(); len(kids) != 1 || len(kids[0].Children()) != 2 {
					t.Fatalf("traced execution should hang the operator tree under the span:\n%s", engine.TraceText(span))
				}
			}
		}
	}
	// An answer of less than a batch is sized by its first batch, whatever
	// the estimate said.
	ids, _, err := engine.ExecColumn(nil, s, nil, &engine.ScanTag{Color: "red", Tag: "lib"}, 0, 1<<20, nil)
	if err != nil || len(ids) != 1 || cap(ids) != 1 {
		t.Fatalf("%d ids (cap %d), %v", len(ids), cap(ids), err)
	}
}
