package storage_test

import (
	"testing"
)

// The stats/schema epoch is what the compiled-plan cache keys its
// invalidation on: content-only updates must preserve it (so the cache stays
// hot under point updates), every structural mutation must move it, and no
// two structurally distinct store images may ever share a value.

func TestStatsEpochContentUpdatePreserves(t *testing.T) {
	s := summaryStore(t, 4)
	e0 := s.StatsEpoch()
	if e0 == 0 {
		t.Fatal("fresh store has zero epoch")
	}
	roots, err := s.Roots("red")
	if err != nil || len(roots) != 1 {
		t.Fatalf("Roots: %v %v", roots, err)
	}
	if err := s.UpdateContent(roots[0].Elem, "renamed"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetElemAttrs(roots[0].Elem, "", [][2]string{{"k", "v"}}); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsEpoch(); got != e0 {
		t.Fatalf("content/attr update moved epoch %d -> %d", e0, got)
	}
}

func TestStatsEpochStructuralMutationBumps(t *testing.T) {
	s := summaryStore(t, 4)
	e0 := s.StatsEpoch()

	roots, err := s.Roots("red")
	if err != nil || len(roots) != 1 {
		t.Fatalf("Roots: %v %v", roots, err)
	}
	leaf, err := insertLeaf(s, roots[0], "extra", "x")
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.StatsEpoch()
	if e1 == e0 {
		t.Fatalf("insert did not move epoch (%d)", e0)
	}

	if err := s.DeleteSubtree(leaf); err != nil {
		t.Fatal(err)
	}
	if e2 := s.StatsEpoch(); e2 == e1 {
		t.Fatalf("delete did not move epoch (%d)", e1)
	}
}

func TestStatsEpochCloneSharesUntilMutation(t *testing.T) {
	s := summaryStore(t, 4)
	c := s.Clone()
	if c.StatsEpoch() != s.StatsEpoch() {
		t.Fatalf("clone epoch %d != parent %d", c.StatsEpoch(), s.StatsEpoch())
	}
	roots, err := c.Roots("red")
	if err != nil || len(roots) != 1 {
		t.Fatalf("Roots: %v %v", roots, err)
	}
	if _, err := insertLeaf(c, roots[0], "extra", "x"); err != nil {
		t.Fatal(err)
	}
	if c.StatsEpoch() == s.StatsEpoch() {
		t.Fatal("clone mutation moved parent's epoch (or failed to move its own)")
	}
}

func TestStatsEpochProcessUnique(t *testing.T) {
	// Two independently built stores (e.g. a full Load rebuild replacing a
	// snapshot) must never collide on an epoch, even with identical content.
	a := summaryStore(t, 2)
	b := summaryStore(t, 2)
	if a.StatsEpoch() == b.StatsEpoch() {
		t.Fatalf("independent stores share epoch %d", a.StatsEpoch())
	}
}
