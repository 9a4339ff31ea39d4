package serialize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/schema"
	"colorfulxml/internal/xmlenc"
)

func TestOptSerializeFigure8(t *testing.T) {
	s := schema.Figure8()
	plan, err := OptSerialize(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every multi-colored type has all its real colors ranked.
	for _, elem := range []string{"movie", "movie-role", "name"} {
		ranked := plan.Ranked[elem]
		if len(ranked) != len(s.RealColors(elem)) {
			t.Fatalf("Ranked[%s] = %v, real colors %v", elem, ranked, s.RealColors(elem))
		}
	}
	// Ranked lists are sorted by cost.
	for elem, ranked := range plan.Ranked {
		for i := 1; i < len(ranked); i++ {
			a := plan.Cost[TypeColor{elem, ranked[i-1]}]
			b := plan.Cost[TypeColor{elem, ranked[i]}]
			if a > b {
				t.Fatalf("Ranked[%s] not sorted by cost: %v", elem, ranked)
			}
		}
	}
	// movie-role has 10 red instances per movie but only 4 blue per actor:
	// nesting it in red avoids 10 parent pointers per movie; check red wins.
	if plan.Ranked["movie-role"][0] != "red" {
		t.Fatalf("movie-role primary = %q, want red (quant 10 vs 4)", plan.Ranked["movie-role"][0])
	}
	if got := plan.String(); !strings.Contains(got, "movie-role") {
		t.Fatalf("plan rendering: %s", got)
	}
}

// TestOptSerializeMatchesExhaustive is the Theorem 5.1 sanity check: the
// DP's free minimum equals the best cost over all forced primary-color
// assignments of the multi-colored element types.
func TestOptSerializeMatchesExhaustive(t *testing.T) {
	s := schema.Figure8()
	plan, err := OptSerialize(s)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-colored types and their choices.
	var multi []string
	for _, e := range s.ElementTypes() {
		if s.MultiColored(e) && !s.IsLeaf(e) {
			multi = append(multi, e)
		}
	}
	best := -1.0
	var bestAssign map[string]core.Color
	var rec func(i int, cur map[string]core.Color)
	rec = func(i int, cur map[string]core.Color) {
		if i == len(multi) {
			assign := map[string]core.Color{}
			for k, v := range cur {
				assign[k] = v
			}
			cost, err := CostUnder(s, assign)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || cost < best {
				best = cost
				bestAssign = assign
			}
			return
		}
		for _, c := range s.RealColors(multi[i]) {
			cur[multi[i]] = c
			rec(i+1, cur)
		}
		delete(cur, multi[i])
	}
	rec(0, map[string]core.Color{})

	// The plan's assignment must achieve the exhaustive minimum.
	planAssign := map[string]core.Color{}
	for _, e := range multi {
		planAssign[e] = plan.Ranked[e][0]
	}
	planCost, err := CostUnder(s, planAssign)
	if err != nil {
		t.Fatal(err)
	}
	if planCost != best {
		t.Fatalf("plan cost %v != exhaustive best %v (best assignment %v, plan %v)",
			planCost, best, bestAssign, planAssign)
	}
}

func TestPrimaryForFallsBackWhenInstanceLacksColor(t *testing.T) {
	m := fixtures.NewMovieDB()
	plan := &Plan{Ranked: map[string][]core.Color{
		"movie": {"green", "red"},
	}}
	// duck has no green: falls back to red.
	if got := plan.PrimaryFor(m.Node("duck")); got != "red" {
		t.Fatalf("PrimaryFor(duck) = %q", got)
	}
	if got := plan.PrimaryFor(m.Node("eve")); got != "green" {
		t.Fatalf("PrimaryFor(eve) = %q", got)
	}
	// Unknown type: first color of the instance.
	if got := plan.PrimaryFor(m.Node("bette")); got != "blue" {
		t.Fatalf("PrimaryFor(bette) = %q", got)
	}
}

func TestRoundTripMovieDB(t *testing.T) {
	m := fixtures.NewMovieDB()
	doc, err := Serialize(m.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := xmlenc.String(doc, xmlenc.WriteOptions{Indent: "  "})
	back, err := DeserializeString(out)
	if err != nil {
		t.Fatalf("deserialize: %v\nxml:\n%s", err, out)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("reconstructed database invalid: %v", err)
	}
	if ok, why := Isomorphic(m.DB, back); !ok {
		t.Fatalf("round trip not isomorphic: %s\nxml:\n%s", why, out)
	}
}

func TestRoundTripWithPlan(t *testing.T) {
	m := fixtures.NewMovieDB()
	plan := &Plan{Ranked: map[string][]core.Color{
		"movie":      {"green", "red"}, // nest movies under awards
		"movie-role": {"blue", "red"},  // nest roles under actors
	}}
	doc, err := Serialize(m.DB, plan)
	if err != nil {
		t.Fatal(err)
	}
	out := xmlenc.String(doc, xmlenc.WriteOptions{})
	// A movie element must now appear under a year in the green tree.
	if !strings.Contains(out, "<year>") {
		t.Fatalf("unexpected serialization: %s", out)
	}
	back, err := DeserializeString(out)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := Isomorphic(m.DB, back); !ok {
		t.Fatalf("round trip (plan) not isomorphic: %s\nxml:\n%s", why, out)
	}
}

func TestSerializeStringDeclaration(t *testing.T) {
	m := fixtures.NewMovieDB()
	out, err := SerializeString(m.DB, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "<?xml") {
		t.Fatalf("missing declaration: %.60s", out)
	}
	if !strings.Contains(out, `<mct colors="blue green red">`) {
		t.Fatalf("missing mct root: %.120s", out)
	}
}

func TestDeserializeErrors(t *testing.T) {
	bad := []string{
		`<notmct/>`,
		`<mct/>`,
		`<mct colors="red"><tree/></mct>`,
		`<mct colors="red"><tree color="blue"/></mct>`,
		`<mct colors="red green"><tree color="red"><a mct:colors="green"/></tree></mct>`,
		`<mct colors="red green"><tree color="red"><a mct:colors="red green" mct:p-green="999"/></tree></mct>`,
		`<mct colors="red"><tree color="red"><a mct:o-red="77"/></tree></mct>`,
		`<mct colors="red green"><tree color="red"><a mct:colors="red green" mct:p-blue="doc"/></tree></mct>`,
	}
	for _, src := range bad {
		if _, err := DeserializeString(src); err == nil {
			t.Errorf("DeserializeString(%q) should fail", src)
		}
	}
}

func TestDeserializeDocParentRef(t *testing.T) {
	src := `<mct colors="green red">
<tree color="green"><g mct:colors="green red" mct:p-red="doc">x</g></tree>
<tree color="red"/>
</mct>`
	db, err := DeserializeString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	kids := core.Children(db.Document(), "red")
	if len(kids) != 1 || kids[0].Name() != "g" {
		t.Fatalf("red children = %v", kids)
	}
}

// randomSerializableDB builds a random multi-colored database.
func randomSerializableDB(seed int64) *core.Database {
	rng := rand.New(rand.NewSource(seed))
	colors := []core.Color{"red", "green", "blue"}
	db := core.NewDatabase(colors...)
	attached := map[core.Color][]*core.Node{}
	for _, c := range colors {
		attached[c] = []*core.Node{db.Document()}
	}
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 60; i++ {
		c := colors[rng.Intn(len(colors))]
		parent := attached[c][rng.Intn(len(attached[c]))]
		switch rng.Intn(6) {
		case 0, 1, 2:
			n, err := db.AddElement(parent, names[rng.Intn(len(names))], c)
			if err != nil {
				panic(err)
			}
			attached[c] = append(attached[c], n)
			if rng.Intn(2) == 0 {
				if _, err := db.AppendText(n, "t"+names[rng.Intn(len(names))]); err != nil {
					panic(err)
				}
			}
			if rng.Intn(3) == 0 {
				if _, err := db.SetAttribute(n, "k"+names[rng.Intn(2)], "v"); err != nil {
					panic(err)
				}
			}
		case 3, 4:
			// Adopt a node from another color.
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
		case 5:
			// Extra sibling to exercise ordering.
			n, err := db.AddElement(parent, "z", c)
			if err != nil {
				panic(err)
			}
			attached[c] = append(attached[c], n)
		}
	}
	if err := db.Validate(); err != nil {
		panic(err)
	}
	return db
}

func TestQuickRoundTripRandomDatabases(t *testing.T) {
	f := func(seed int64) bool {
		db := randomSerializableDB(seed)
		out, err := SerializeString(db, nil, false)
		if err != nil {
			t.Logf("serialize: %v", err)
			return false
		}
		back, err := DeserializeString(out)
		if err != nil {
			t.Logf("deserialize: %v\n%s", err, out)
			return false
		}
		if err := back.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		ok, why := Isomorphic(db, back)
		if !ok {
			t.Logf("not isomorphic: %s\n%s", why, out)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsomorphicDetectsDifferences(t *testing.T) {
	a := fixtures.NewMovieDB()
	b := fixtures.NewMovieDB()
	if ok, _ := Isomorphic(a.DB, b.DB); !ok {
		t.Fatal("fresh fixtures should be isomorphic")
	}
	if err := b.DB.SetText(b.Node("eve-name"), "Changed"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Isomorphic(a.DB, b.DB); ok {
		t.Fatal("text change should break isomorphism")
	}
	c := fixtures.NewMovieDB()
	if err := c.DB.Detach(c.Node("eve"), "green"); err != nil {
		t.Fatal(err)
	}
	if err := c.DB.Append(c.Node("y1957"), c.Node("eve"), "green"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Isomorphic(a.DB, c.DB); ok {
		t.Fatal("structural change should break isomorphism")
	}
}

func TestCostUnderForcedWorseThanOptimal(t *testing.T) {
	s := schema.Figure8()
	plan, err := OptSerialize(s)
	if err != nil {
		t.Fatal(err)
	}
	opt := map[string]core.Color{
		"movie":      plan.Ranked["movie"][0],
		"movie-role": plan.Ranked["movie-role"][0],
	}
	optCost, err := CostUnder(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Forcing movie-role into blue (quant 4 side) must not beat the optimum.
	worse := map[string]core.Color{
		"movie":      plan.Ranked["movie"][0],
		"movie-role": "blue",
	}
	worseCost, err := CostUnder(s, worse)
	if err != nil {
		t.Fatal(err)
	}
	if worseCost < optCost {
		t.Fatalf("forced plan cheaper than optimal: %v < %v", worseCost, optCost)
	}
}
