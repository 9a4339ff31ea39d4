package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/storage"
)

// wideplan builds one tree touching every operator kind, so the clone tests
// cover the full algebra (PathScan is cloned alongside it below; it runs
// against a store with a summary).
func widePlan() engine.Op {
	scan := func(tag string) engine.Op { return &engine.ScanTag{Color: "red", Tag: tag} }
	return &engine.Project{
		Cols: []int{0},
		Input: &engine.SortStart{
			Col: 0,
			Input: &engine.TupleOrder{Input: &engine.Dedup{
				Col: 0,
				Input: &engine.Filter{
					Col:  0,
					Pred: engine.Pred{Kind: "contains", Value: "x"},
					Input: &engine.AttrFilter{
						Col:  0,
						Name: "id",
						Pred: engine.Pred{Kind: "ne", Value: ""},
						Input: &engine.StructJoin{
							AncCol:  0,
							DescCol: 0,
							Axis:    engine.AncestorDescendant,
							Anc: &engine.ExistsJoin{
								Col:      0,
								ProbeCol: 0,
								Axis:     engine.AncestorDescendant,
								Input: &engine.Uniq{Input: &engine.NavJoin{
									Col: 0, Axis: engine.NavAncestor, Color: "red", Tag: "z",
									Input: scan("a"),
								}},
								Probe: scan("b"),
							},
							Desc: &engine.CrossColor{
								Col: 0,
								To:  "blue",
								Input: &engine.ValueJoin{
									LeftCol:  0,
									RightCol: 0,
									LeftKey:  engine.Key{Attr: "ref"},
									RightKey: engine.Key{Attr: "id"},
									Left: &engine.IDJoin{
										LeftCol:  0,
										RightCol: 0,
										Left:     scan("c"),
										Right:    scan("d"),
									},
									Right: &engine.NLJoin{
										LeftCol:  0,
										RightCol: 0,
										Kind:     "lt",
										Numeric:  true,
										Left:     &engine.EqContent{Color: "red", Tag: "e", Value: "v"},
										Right: &engine.ContainsScan{
											Color: "red", Tag: "f",
											Pred: engine.Pred{Kind: "eq", Value: "v"},
										},
									},
								},
							},
						},
					},
				},
			}},
		},
	}
}

// collectOps flattens a tree preorder.
func collectOps(op engine.Op) []engine.Op {
	out := []engine.Op{op}
	for _, ch := range op.Children() {
		out = append(out, collectOps(ch)...)
	}
	return out
}

// TestCloneCoversAlgebra asserts a clone is a structurally identical but
// physically distinct tree: same Explain rendering, no shared operator
// instances, and every operator kind represented.
func TestCloneCoversAlgebra(t *testing.T) {
	for _, orig := range []engine.Op{
		widePlan(),
		&engine.PathScan{Color: "red", Steps: []storage.PathStep{{Tag: "a", Desc: true}}},
	} {
		clone := orig.Clone()
		if got, want := engine.Explain(clone), engine.Explain(orig); got != want {
			t.Fatalf("clone renders differently:\n--- clone ---\n%s--- orig ---\n%s", got, want)
		}
		seen := map[engine.Op]bool{}
		for _, op := range collectOps(orig) {
			seen[op] = true
		}
		for _, op := range collectOps(clone) {
			if seen[op] {
				t.Fatalf("clone shares operator instance %s with original", op)
			}
		}
	}
}

// TestClonesRunConcurrently is the re-entrancy property the plan cache
// relies on: many executions of the same prototype run concurrently, each on
// its own clone, and all agree with a solo run. Run with -race.
func TestClonesRunConcurrently(t *testing.T) {
	_, s := loadStore(t)
	proto := &engine.SortStart{
		Col: 1,
		Input: &engine.StructJoin{
			Anc:     &engine.ScanTag{Color: "red", Tag: "movie"},
			Desc:    &engine.ScanTag{Color: "red", Tag: "name"},
			AncCol:  0,
			DescCol: 0,
			Axis:    engine.AncestorDescendant,
		},
	}
	want, _ := run(t, s, proto.Clone())
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, _, err := engine.Exec(s, proto.Clone())
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != len(want) {
				errs <- fmt.Errorf("rows = %d, want %d", len(rows), len(want))
				return
			}
			for i := range rows {
				if rows[i][1].Start != want[i][1].Start {
					errs <- fmt.Errorf("row %d start = %d, want %d", i, rows[i][1].Start, want[i][1].Start)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
