package storage

import (
	"testing"

	"colorfulxml/internal/core"
)

// TestStatsEpochMovesByRule walks a store through one insert or delete per
// rule of StatsEpoch, and some that match none, and checks which move the
// epoch and under which reason they are counted.
func TestStatsEpochMovesByRule(t *testing.T) {
	db := core.NewDatabase("red")
	shop, err := db.AddElement(db.Document(), "shop", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		item, err := db.AddElement(shop, "item", "red")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddElementText(item, "name", "red", "n"); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	node := func(tag string, i int) SNode {
		ns, err := s.ScanTag("red", tag)
		if err != nil {
			t.Fatal(err)
		}
		return ns[i]
	}
	insert := func(parent SNode, tag string) func() error {
		return func() error { _, err := insertLeaf(s, parent, tag, ""); return err }
	}
	var added []SNode // the items added under the shop, childless
	addItem := func() error {
		sn, err := insertLeaf(s, node("shop", 0), "item", "")
		added = append(added, sn)
		return err
	}
	del := func() error {
		sn := added[len(added)-1]
		added = added[:len(added)-1]
		return s.DeleteSubtree(sn)
	}
	for i, step := range []struct {
		what string
		do   func() error
		why  epochMove // moveNone: the epoch stays
	}{
		{"a name's first child", insert(node("name", 0), "b"), epochFirstChild},
		{"a fifth item", addItem, moveNone},
		{"a sixth item", addItem, moveNone},
		{"a seventh item", addItem, moveNone},
		{"an eighth item", addItem, epochCardDoubled},
		{"an item in an item", insert(node("item", 0), "item"), epochNests},
		{"a ninth item deleted", del, moveNone},
		{"an eighth item deleted", del, epochCardDoubled},
		{"a content update", func() error { return s.UpdateContent(node("name", 1).Elem, "m") }, moveNone},
		{"an attribute set", func() error { return s.SetElemAttrs(node("name", 1).Elem, "", [][2]string{{"k", "v"}}) }, moveNone},
		{"a name renamed", func() error { return s.SetElemAttrs(node("name", 2).Elem, "title", nil) }, epochRenamed},
	} {
		var before [len(obsEpochMoves)]uint64
		for j, c := range obsEpochMoves {
			before[j] = c.Value()
		}
		epoch := s.StatsEpoch()
		if err := step.do(); err != nil {
			t.Fatalf("step %d (%s): %v", i, step.what, err)
		}
		if moved := s.StatsEpoch() != epoch; moved != (step.why != moveNone) {
			t.Errorf("step %d (%s) moved the epoch: %v", i, step.what, moved)
		}
		for j, c := range obsEpochMoves {
			want := before[j]
			if epochMove(j) == step.why {
				want++
			}
			if got := c.Value(); got != want {
				t.Errorf("step %d (%s): reason %d counted %d moves, want %d", i, step.what, j, got-before[j], want-before[j])
			}
		}
	}
}

// moveNone is a step that moves no epoch.
const moveNone = epochMove(len(obsEpochMoves))
