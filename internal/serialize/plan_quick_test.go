package serialize

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"colorfulxml/internal/core"
	"colorfulxml/internal/schema"
)

// randomSchema builds a small random MCT schema with two hierarchies sharing
// a multi-colored middle type, satisfying the Section 5.3 assumptions
// (acyclic multi-colored types, one production per color).
func randomSchema(seed int64) *schema.Schema {
	rng := rand.New(rand.NewSource(seed))
	s := schema.New()
	s.AddColor("a", "rootA")
	s.AddColor("b", "rootB")

	// Shared multi-colored types m1 (a+b child of both roots) and m2
	// (child of m1 in both colors).
	s.AddProduction("a", "rootA", "m1*")
	s.AddProduction("b", "rootB", "m1*")
	prodA := []string{"m2*"}
	prodB := []string{"m2*"}
	// Random single-colored leaves with random quantities.
	nLeaves := 1 + rng.Intn(4)
	for i := 0; i < nLeaves; i++ {
		leaf := fmt.Sprintf("leafA%d", i)
		prodA = append(prodA, leaf+"*")
		s.SetQuant(leaf, "a", float64(1+rng.Intn(6)))
	}
	nLeaves = 1 + rng.Intn(4)
	for i := 0; i < nLeaves; i++ {
		leaf := fmt.Sprintf("leafB%d", i)
		prodB = append(prodB, leaf+"*")
		s.SetQuant(leaf, "b", float64(1+rng.Intn(6)))
	}
	s.AddProduction("a", "m1", prodA...)
	s.AddProduction("b", "m1", prodB...)
	s.AddProduction("a", "m2", "x?")
	s.AddProduction("b", "m2", "y?")
	s.SetQuant("m1", "a", float64(1+rng.Intn(8)))
	s.SetQuant("m1", "b", float64(1+rng.Intn(8)))
	s.SetQuant("m2", "a", float64(1+rng.Intn(8)))
	s.SetQuant("m2", "b", float64(1+rng.Intn(8)))
	return s
}

// TestQuickOptSerializeMatchesExhaustive extends the Theorem 5.1 check to
// random schemas: for every seed, the DP's primary-color choices must match
// the exhaustive minimum over all assignments of the multi-colored types.
func TestQuickOptSerializeMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSchema(seed)
		plan, err := OptSerialize(s)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		multi := []string{"m1", "m2"}
		best := -1.0
		var rec func(i int, cur map[string]core.Color) bool
		rec = func(i int, cur map[string]core.Color) bool {
			if i == len(multi) {
				assign := map[string]core.Color{}
				for k, v := range cur {
					assign[k] = v
				}
				cost, err := CostUnder(s, assign)
				if err != nil {
					return false
				}
				if best < 0 || cost < best {
					best = cost
				}
				return true
			}
			for _, c := range s.RealColors(multi[i]) {
				cur[multi[i]] = c
				if !rec(i+1, cur) {
					return false
				}
			}
			delete(cur, multi[i])
			return true
		}
		if !rec(0, map[string]core.Color{}) {
			return false
		}
		planAssign := map[string]core.Color{}
		for _, e := range multi {
			planAssign[e] = plan.Ranked[e][0]
		}
		planCost, err := CostUnder(s, planAssign)
		if err != nil {
			return false
		}
		if planCost != best {
			t.Logf("seed %d: plan cost %v != exhaustive best %v (plan %v)",
				seed, planCost, best, planAssign)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripWithRandomPlans serializes random databases under
// adversarial plans (forcing odd primary colors) and checks reconstruction.
func TestQuickRoundTripWithRandomPlans(t *testing.T) {
	f := func(seed int64) bool {
		db := randomSerializableDB(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		colors := db.Colors()
		plan := &Plan{Ranked: map[string][]core.Color{}}
		for _, tag := range []string{"a", "b", "c", "d", "z"} {
			perm := rng.Perm(len(colors))
			ranked := make([]core.Color, len(colors))
			for i, pi := range perm {
				ranked[i] = colors[pi]
			}
			plan.Ranked[tag] = ranked
		}
		out, err := SerializeString(db, plan, false)
		if err != nil {
			t.Logf("serialize: %v", err)
			return false
		}
		back, err := DeserializeString(out)
		if err != nil {
			t.Logf("deserialize: %v\n%s", err, out)
			return false
		}
		ok, why := Isomorphic(db, back)
		if !ok {
			t.Logf("seed %d: %s", seed, why)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
