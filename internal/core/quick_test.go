package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"colorfulxml/internal/core"
)

// randomMCT builds a random MCT database from a seed by applying a sequence
// of constructor and mutation operations, each checked to either succeed or
// fail with a declared error. The resulting database must always validate:
// the mutation API is designed so that invariant-breaking operations are
// rejected up front (except Detach/RemoveColor, which we compensate for).
func randomMCT(seed int64, ops int) *core.Database {
	rng := rand.New(rand.NewSource(seed))
	colors := []core.Color{red, green, blue}
	db := core.NewDatabase(colors...)
	// attached[c] tracks nodes attached in the rooted tree of color c.
	attached := map[core.Color][]*core.Node{
		red:   {db.Document()},
		green: {db.Document()},
		blue:  {db.Document()},
	}
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < ops; i++ {
		c := colors[rng.Intn(len(colors))]
		nodes := attached[c]
		parent := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // add a fresh element
			n, err := db.AddElement(parent, names[rng.Intn(len(names))], c)
			if err != nil {
				panic(err)
			}
			attached[c] = append(attached[c], n)
		case 4: // add text
			if parent != db.Document() {
				if _, err := db.AppendText(parent, "t"); err != nil {
					panic(err)
				}
			}
		case 5: // set attribute
			if parent != db.Document() {
				if _, err := db.SetAttribute(parent, "k", "v"); err != nil {
					panic(err)
				}
			}
		case 6, 7: // adopt an element from another color (multi-color node)
			c2 := colors[rng.Intn(len(colors))]
			if c2 == c {
				continue
			}
			cand := attached[c2]
			n := cand[rng.Intn(len(cand))]
			if n == db.Document() || n.HasColor(c) {
				continue
			}
			if err := db.Adopt(parent, n, c); err != nil {
				panic(err)
			}
			attached[c] = append(attached[c], n)
		case 8: // delete a leaf-ish subtree
			if len(nodes) > 1 {
				n := nodes[1+rng.Intn(len(nodes)-1)]
				if err := db.DeleteSubtree(n, c); err != nil {
					panic(err)
				}
				// Rebuild attachment tracking conservatively.
				for _, cc := range colors {
					var keep []*core.Node
					for _, m := range attached[cc] {
						if db.NodeByID(m.ID()) != nil && m.HasColor(cc) {
							keep = append(keep, m)
						}
					}
					attached[cc] = keep
				}
			}
		case 9: // move: detach and reattach under a different parent
			if len(nodes) > 2 {
				n := nodes[1+rng.Intn(len(nodes)-1)]
				if n == parent || n == db.Document() {
					continue
				}
				if slices.Contains(core.Descendants(n, c), parent) || core.Parent(n, c) == nil {
					continue
				}
				if err := db.Detach(n, c); err != nil {
					panic(err)
				}
				if err := db.Append(parent, n, c); err != nil {
					panic(err)
				}
			}
		}
	}
	return db
}

func TestQuickRandomMutationsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		db := randomMCT(seed, 120)
		return db.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLocalOrderIsTotalPerColor(t *testing.T) {
	f := func(seed int64) bool {
		db := randomMCT(seed, 80)
		for _, c := range db.Colors() {
			nodes := db.TreeNodes(c)
			// Positions must be strictly increasing in traversal order.
			last := -1
			for _, n := range nodes {
				p, ok := db.LocalOrder(n, c)
				if !ok {
					return false
				}
				if p <= last && n.Kind() != core.KindAttribute {
					// attributes may interleave; TreeNodes excludes them
					return false
				}
				if p > last {
					last = p
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCopySubtreePreservesStringValue(t *testing.T) {
	f := func(seed int64) bool {
		db := randomMCT(seed, 60)
		for _, c := range db.Colors() {
			nodes := db.TreeNodes(c)
			for _, n := range nodes {
				if n.Kind() != core.KindElement {
					continue
				}
				cp, err := db.CopySubtree(n, c)
				if err != nil {
					return false
				}
				a, _ := core.StringValue(n, c)
				b, _ := core.StringValue(cp, c)
				if a != b {
					return false
				}
				break // one element per color keeps the test fast
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStatsStructuralNodeIdentity(t *testing.T) {
	// StructuralNodes == sum over elements of |colors|, which equals
	// Elements + sum over elements of (|colors|-1). With only single- and
	// multi-colored elements this is >= Elements + MultiColored.
	f := func(seed int64) bool {
		db := randomMCT(seed, 100)
		s := db.ComputeStats()
		return s.StructuralNodes >= s.Elements+s.MultiColored && s.Elements >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
