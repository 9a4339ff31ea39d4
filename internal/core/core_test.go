package core_test

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"colorfulxml/internal/core"
)

const (
	red   = core.Color("red")
	green = core.Color("green")
	blue  = core.Color("blue")
)

// buildMovieDB constructs a miniature version of the paper's Figure 2 movie
// database: a red movie-genre hierarchy, a green movie-award hierarchy and a
// blue actor hierarchy, with movie and movie-role nodes participating in two
// hierarchies each.
func buildMovieDB(t *testing.T) (*core.Database, map[string]*core.Node) {
	t.Helper()
	db := core.NewDatabase(red, green, blue)
	doc := db.Document()
	ns := map[string]*core.Node{}
	mk := func(key string, parent *core.Node, name string, c core.Color, text string) *core.Node {
		t.Helper()
		var n *core.Node
		var err error
		if text == "" {
			n, err = db.AddElement(parent, name, c)
		} else {
			n, err = db.AddElementText(parent, name, c, text)
		}
		if err != nil {
			t.Fatalf("building %s: %v", key, err)
		}
		ns[key] = n
		return n
	}

	// Red: movie-genre hierarchy.
	genres := mk("genres", doc, "movie-genres", red, "")
	comedy := mk("comedy", genres, "movie-genre", red, "")
	mk("comedy-name", comedy, "name", red, "Comedy")
	slapstick := mk("slapstick", comedy, "movie-genre", red, "")
	mk("slapstick-name", slapstick, "name", red, "Slapstick")
	drama := mk("drama", genres, "movie-genre", red, "")
	mk("drama-name", drama, "name", red, "Drama")

	// Movies are red children of their genre.
	eve := mk("eve", comedy, "movie", red, "")
	mk("eve-name", eve, "name", red, "All About Eve")
	duck := mk("duck", slapstick, "movie", red, "")
	mk("duck-name", duck, "name", red, "Duck Soup")

	// Green: Oscar movie-award temporal hierarchy.
	awards := mk("awards", doc, "movie-awards", green, "")
	oscar := mk("oscar", awards, "movie-award", green, "")
	mk("oscar-name", oscar, "name", green, "Oscar Best Movie")
	y1950 := mk("y1950", oscar, "year", green, "")
	mk("y1950-name", y1950, "name", green, "1950")

	// "All About Eve" is Oscar nominated: movie becomes green too.
	if err := db.Adopt(ns["y1950"], eve, green); err != nil {
		t.Fatalf("adopt eve into green: %v", err)
	}
	mk("eve-votes", eve, "votes", green, "14")

	// Blue: actor hierarchy, with movie-role nodes red+blue.
	actors := mk("actors", doc, "actors", blue, "")
	bette := mk("bette", actors, "actor", blue, "")
	mk("bette-name", bette, "name", blue, "Bette Davis")
	role := mk("role", eve, "movie-role", red, "")
	mk("role-name", role, "name", red, "Margo Channing")
	if err := db.Adopt(bette, role, blue); err != nil {
		t.Fatalf("adopt role into blue: %v", err)
	}

	if err := db.Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
	return db, ns
}

func TestDatabaseColors(t *testing.T) {
	db := core.NewDatabase(red, green)
	got := db.Colors()
	if len(got) != 2 || got[0] != green || got[1] != red {
		t.Fatalf("Colors() = %v, want [green red]", got)
	}
	if !db.HasColor(red) || db.HasColor(blue) {
		t.Fatalf("HasColor wrong: red=%v blue=%v", db.HasColor(red), db.HasColor(blue))
	}
	db.AddDatabaseColor(blue)
	if !db.HasColor(blue) {
		t.Fatal("AddDatabaseColor(blue) did not register")
	}
	if !db.Document().HasColor(blue) {
		t.Fatal("document node must carry every database color")
	}
}

func TestNewElementUnknownColor(t *testing.T) {
	db := core.NewDatabase(red)
	if _, err := db.NewElement("x", "purple"); !errors.Is(err, core.ErrUnknownColor) {
		t.Fatalf("want ErrUnknownColor, got %v", err)
	}
	if _, err := db.NewElement("x", ""); !errors.Is(err, core.ErrUnknownColor) {
		t.Fatalf("empty color: want ErrUnknownColor, got %v", err)
	}
}

func TestMultiColorMembership(t *testing.T) {
	db, ns := buildMovieDB(t)
	eve := ns["eve"]
	if !eve.HasColor(red) || !eve.HasColor(green) || eve.HasColor(blue) {
		t.Fatalf("eve colors = %v, want [green red]", eve.Colors())
	}
	if got := eve.Colors(); len(got) != 2 || got[0] != green || got[1] != red {
		t.Fatalf("Colors() = %v", got)
	}
	// Parent differs per color (the paper's RG012 example).
	if p := core.Parent(eve, red); p != ns["comedy"] {
		t.Fatalf("red parent = %v, want comedy", p)
	}
	if p := core.Parent(eve, green); p != ns["y1950"] {
		t.Fatalf("green parent = %v, want y1950", p)
	}
	if p := core.Parent(eve, blue); p != nil {
		t.Fatalf("blue parent = %v, want nil (color incompatible)", p)
	}
	_ = db
}

func TestAccessorColorCompatibility(t *testing.T) {
	_, ns := buildMovieDB(t)
	eve := ns["eve"]
	if ch := core.Children(eve, blue); ch != nil {
		t.Fatalf("Children in incompatible color = %v, want nil", ch)
	}
	if _, ok := core.StringValue(eve, blue); ok {
		t.Fatal("StringValue in incompatible color should report ok=false")
	}
	if _, ok := core.TypedValue(eve, blue); ok {
		t.Fatal("TypedValue in incompatible color should report ok=false")
	}
}

func TestStringValuePerColor(t *testing.T) {
	_, ns := buildMovieDB(t)
	eve := ns["eve"]
	// Red subtree of eve: name + movie-role/name. Green subtree: name + votes.
	rv, ok := core.StringValue(eve, red)
	if !ok {
		t.Fatal("red string value should be ok")
	}
	if !strings.Contains(rv, "All About Eve") || !strings.Contains(rv, "Margo Channing") {
		t.Fatalf("red string-value = %q", rv)
	}
	if strings.Contains(rv, "14") {
		t.Fatalf("red string-value should not include green-only votes content: %q", rv)
	}
	gv, _ := core.StringValue(eve, green)
	if !strings.Contains(gv, "14") || strings.Contains(gv, "Margo") {
		t.Fatalf("green string-value = %q", gv)
	}
}

func TestTypedValue(t *testing.T) {
	_, ns := buildMovieDB(t)
	v, ok := core.TypedValue(ns["eve-votes"], green)
	if !ok {
		t.Fatal("votes should be green-compatible")
	}
	if v != int64(14) {
		t.Fatalf("typed value = %#v, want int64(14)", v)
	}
}

// atomizeRef is Atomize as it was before text was turned away on its first
// byte: the behaviour the prefilter must not change.
func atomizeRef(s string) any {
	t := strings.TrimSpace(s)
	if t == "" {
		return s
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return f
	}
	return s
}

func TestAtomize(t *testing.T) {
	same := func(a, b any) bool {
		af, aok := a.(float64)
		bf, bok := b.(float64)
		if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
			return true
		}
		return a == b
	}
	cases := []struct {
		in   string
		want any
	}{
		{"42", int64(42)},
		{" -7 ", int64(-7)},
		{" 7 ", int64(7)},
		{"+1", int64(1)},
		{"3.5", 3.5},
		{".5", 0.5},
		{"1e3", 1000.0},
		{"0x1p-2", 0.25},
		{"Inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
		{"Infinity", math.Inf(1)},
		{"nan", math.NaN()},
		{"abc", "abc"},
		{"Item 7", "Item 7"},
		{" Item 7", " Item 7"},
		{"", ""},
		{"  ", "  "},
		{"12abc", "12abc"},
		{"-", "-"},
		{".", "."},
		{"in", "in"},
		{"none", "none"},
		{"_1", "_1"},
		{"\u0661", "\u0661"},
	}
	for _, c := range cases {
		got := core.Atomize(c.in)
		if !same(got, c.want) {
			t.Errorf("Atomize(%q) = %#v, want %#v", c.in, got, c.want)
		}
		if ref := atomizeRef(c.in); !same(got, ref) {
			t.Errorf("Atomize(%q) = %#v, the unfiltered parse gives %#v", c.in, got, ref)
		}
		f, ok := core.Numeric(c.in)
		switch w := c.want.(type) {
		case int64:
			if !ok || f != float64(w) {
				t.Errorf("Numeric(%q) = %v, %v", c.in, f, ok)
			}
		case float64:
			if !ok || !same(f, w) {
				t.Errorf("Numeric(%q) = %v, %v", c.in, f, ok)
			}
		default:
			if ok {
				t.Errorf("Numeric(%q) = %v, want not a number", c.in, f)
			}
		}
	}
}

// TestAtomizeTextDoesNotAllocate: typing plain text used to cost two failed
// strconv parses, an allocated error each. Numeric allocates nothing now;
// Atomize only the interface box it returns the string in.
func TestAtomizeTextDoesNotAllocate(t *testing.T) {
	for _, in := range []string{"Item 7", "", " some text ", "none"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := core.Numeric(in); ok {
				t.Fatal("text parsed as a number")
			}
		}); n != 0 {
			t.Errorf("Numeric(%q) allocates %v times", in, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := core.Atomize(in).(string); !ok {
				t.Fatal("text did not atomize to itself")
			}
		}); n > 1 {
			t.Errorf("Atomize(%q) allocates %v times", in, n)
		}
	}
}

func TestAttributesCarryOwnerColors(t *testing.T) {
	db, ns := buildMovieDB(t)
	eve := ns["eve"]
	a, err := db.SetAttribute(eve, "id", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Colors(); len(got) != 2 {
		t.Fatalf("attribute colors = %v, want owner's two colors", got)
	}
	if p := core.Parent(a, red); p != eve {
		t.Fatalf("attr red parent = %v", p)
	}
	if p := core.Parent(a, green); p != eve {
		t.Fatalf("attr green parent = %v", p)
	}
	if p := core.Parent(a, blue); p != nil {
		t.Fatalf("attr blue parent = %v, want nil", p)
	}
	if eve.AttributeValue("id") != "m1" {
		t.Fatalf("AttributeValue = %q", eve.AttributeValue("id"))
	}
	// Replacing keeps identity.
	a2, _ := db.SetAttribute(eve, "id", "m2")
	if a2 != a {
		t.Fatal("SetAttribute with existing name must update in place")
	}
	if eve.AttributeValue("id") != "m2" {
		t.Fatal("attribute value not updated")
	}
}

func TestTextNodesCarryOwnerColors(t *testing.T) {
	db, ns := buildMovieDB(t)
	// eve-name was created red-only (under eve before eve became green)? No:
	// AppendText adds to every color the element has at that time, and
	// AddColor carries text children into new colors. Verify the carry.
	name := ns["eve-name"] // red element created before eve turned green
	if name.HasColor(green) {
		t.Fatal("eve-name element itself is red-only (element colors are independent)")
	}
	// Now give it green and check its text followed.
	if err := db.AddColor(name, green); err != nil {
		t.Fatal(err)
	}
	if got, ok := core.StringValue(name, green); !ok || got != "All About Eve" {
		t.Fatalf("green string-value after AddColor = %q, %v", got, ok)
	}
}

func TestAddColorErrors(t *testing.T) {
	db, ns := buildMovieDB(t)
	if err := db.AddColor(ns["eve"], red); !errors.Is(err, core.ErrAlreadyColored) {
		t.Fatalf("want ErrAlreadyColored, got %v", err)
	}
	if err := db.AddColor(ns["eve"], "purple"); !errors.Is(err, core.ErrUnknownColor) {
		t.Fatalf("want ErrUnknownColor, got %v", err)
	}
	txt := core.Children(ns["eve-name"], red)[0]
	if txt.Kind() != core.KindText {
		t.Fatal("expected text child")
	}
	if err := db.AddColor(txt, green); !errors.Is(err, core.ErrOwnedNode) {
		t.Fatalf("AddColor on text node: want ErrOwnedNode, got %v", err)
	}
}

func TestAppendErrors(t *testing.T) {
	db, ns := buildMovieDB(t)
	// Child lacking the color.
	if err := db.Append(ns["bette"], ns["drama"], blue); !errors.Is(err, core.ErrColorIncompatible) {
		t.Fatalf("want ErrColorIncompatible, got %v", err)
	}
	// Already attached in color.
	if err := db.Append(ns["drama"], ns["eve"], red); !errors.Is(err, core.ErrAlreadyAttached) {
		t.Fatalf("want ErrAlreadyAttached, got %v", err)
	}
	// Cycle: attach an ancestor under its descendant.
	if err := db.Detach(ns["comedy"], red); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(ns["eve"], ns["comedy"], red); !errors.Is(err, core.ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	// Restore for completeness.
	if err := db.Append(ns["genres"], ns["comedy"], red); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("restored db should validate: %v", err)
	}
}

func TestInsertBefore(t *testing.T) {
	db := core.NewDatabase(red)
	doc := db.Document()
	root, _ := db.AddElement(doc, "root", red)
	a, _ := db.AddElement(root, "a", red)
	c, _ := db.AddElement(root, "c", red)
	b, _ := db.NewElement("b", red)
	if err := db.InsertBefore(root, b, c, red); err != nil {
		t.Fatal(err)
	}
	got := core.Children(root, red)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("children order = %v", got)
	}
	d, _ := db.NewElement("d", red)
	if err := db.InsertBefore(root, d, nil, red); err != nil {
		t.Fatal(err)
	}
	if ch := core.Children(root, red); ch[3] != d {
		t.Fatalf("nil ref should append; children = %v", ch)
	}
}

func TestDetachAndReattach(t *testing.T) {
	db, ns := buildMovieDB(t)
	eve := ns["eve"]
	if err := db.Detach(eve, green); err != nil {
		t.Fatal(err)
	}
	if p := core.Parent(eve, green); p != nil {
		t.Fatalf("after Detach, green parent = %v", p)
	}
	if !eve.HasColor(green) {
		t.Fatal("Detach must not remove the color")
	}
	// Database with a detached colored fragment is invalid.
	if err := db.Validate(); err == nil {
		t.Fatal("detached green fragment should fail validation")
	}
	if err := db.Append(ns["y1950"], eve, green); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("reattached db should validate: %v", err)
	}
	if err := db.Detach(eve, blue); !errors.Is(err, core.ErrColorIncompatible) {
		t.Fatalf("Detach in missing color: got %v", err)
	}
	if err := db.Detach(ns["genres"], red); err != nil {
		t.Fatal(err)
	}
	if err := db.Detach(ns["genres"], red); !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("double Detach: got %v", err)
	}
}

func TestRemoveColor(t *testing.T) {
	db, ns := buildMovieDB(t)
	eve := ns["eve"]
	if err := db.RemoveColor(eve, green); err != nil {
		t.Fatal(err)
	}
	if eve.HasColor(green) {
		t.Fatal("RemoveColor did not remove color")
	}
	if p := core.Parent(eve, red); p != ns["comedy"] {
		t.Fatal("red structure must survive RemoveColor(green)")
	}
	// votes child was green-only; it is now a dangling green node.
	if err := db.Validate(); err == nil {
		t.Fatal("dangling green votes node should fail validation")
	}
	if err := db.Delete(ns["eve-votes"]); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("after deleting dangling node: %v", err)
	}
	if err := db.RemoveColor(eve, blue); !errors.Is(err, core.ErrColorIncompatible) {
		t.Fatalf("RemoveColor missing color: got %v", err)
	}
	if err := db.RemoveColor(db.Document(), red); err == nil {
		t.Fatal("must not remove colors from the document node")
	}
}

func TestDeleteNode(t *testing.T) {
	db, ns := buildMovieDB(t)
	role := ns["role"]
	n := db.NumNodes()
	if err := db.Delete(role); err != nil {
		t.Fatal(err)
	}
	// role had one child element (role-name, red) which becomes dangling, so
	// clean it up too; role itself plus nothing else removed yet.
	if db.NumNodes() >= n {
		t.Fatalf("NumNodes did not shrink: %d -> %d", n, db.NumNodes())
	}
	if db.NodeByID(role.ID()) != nil {
		t.Fatal("deleted node still resolvable by ID")
	}
	// The red parent (eve) must no longer list role.
	for _, ch := range core.Children(ns["eve"], red) {
		if ch == role {
			t.Fatal("deleted node still a child of eve")
		}
	}
	for _, ch := range core.Children(ns["bette"], blue) {
		if ch == role {
			t.Fatal("deleted node still a child of bette")
		}
	}
}

func TestDeleteSubtree(t *testing.T) {
	db, ns := buildMovieDB(t)
	// Deleting the red subtree under comedy: slapstick, names, movies... but
	// eve is also green, so it must survive with only green, and role (also
	// blue) survives as blue.
	if err := db.DeleteSubtree(ns["comedy"], red); err != nil {
		t.Fatal(err)
	}
	eve := ns["eve"]
	if db.NodeByID(eve.ID()) == nil {
		t.Fatal("eve should survive (it is green)")
	}
	if eve.HasColor(red) {
		t.Fatal("eve should have lost red")
	}
	if db.NodeByID(ns["slapstick"].ID()) != nil {
		t.Fatal("red-only slapstick should be gone")
	}
	role := ns["role"]
	if db.NodeByID(role.ID()) == nil || role.HasColor(red) || !role.HasColor(blue) {
		t.Fatal("role should survive as blue-only")
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("after DeleteSubtree: %v", err)
	}
}

func TestLocalOrder(t *testing.T) {
	db, ns := buildMovieDB(t)
	// Red order: genres < comedy < comedy-name < slapstick < ... < eve.
	check := func(a, b *core.Node, c core.Color) {
		t.Helper()
		if db.CompareLocal(a, b, c) >= 0 {
			t.Fatalf("want %v before %v in %q", a, b, c)
		}
	}
	check(ns["genres"], ns["comedy"], red)
	check(ns["comedy"], ns["slapstick"], red)
	check(ns["slapstick"], ns["drama"], red)
	check(ns["awards"], ns["eve"], green)

	// eve has positions in red and green but none in blue.
	if _, ok := db.LocalOrder(ns["eve"], red); !ok {
		t.Fatal("eve should have a red position")
	}
	if _, ok := db.LocalOrder(ns["eve"], blue); ok {
		t.Fatal("eve should have no blue position")
	}

	nodes := []*core.Node{ns["drama"], ns["genres"], ns["comedy"]}
	db.SortLocal(nodes, red)
	if nodes[0] != ns["genres"] || nodes[1] != ns["comedy"] || nodes[2] != ns["drama"] {
		t.Fatalf("SortLocal order wrong: %v", nodes)
	}
}

func TestOrderCacheInvalidation(t *testing.T) {
	db := core.NewDatabase(red)
	root, _ := db.AddElement(db.Document(), "root", red)
	a, _ := db.AddElement(root, "a", red)
	b, _ := db.AddElement(root, "b", red)
	if db.CompareLocal(a, b, red) >= 0 {
		t.Fatal("a should precede b")
	}
	// Move a after b; cached order must be recomputed.
	if err := db.Detach(a, red); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(root, a, red); err != nil {
		t.Fatal(err)
	}
	if db.CompareLocal(b, a, red) >= 0 {
		t.Fatal("after move, b should precede a")
	}
}

func TestTreeNodesAndDescendants(t *testing.T) {
	db, ns := buildMovieDB(t)
	redNodes := db.TreeNodes(red)
	for _, n := range redNodes {
		if !n.HasColor(red) {
			t.Fatalf("TreeNodes(red) returned non-red node %v", n)
		}
	}
	desc := core.Descendants(ns["comedy"], red)
	found := false
	for _, d := range desc {
		if d == ns["eve"] {
			found = true
		}
		if d == ns["eve-votes"] {
			t.Fatal("green-only votes must not be a red descendant")
		}
	}
	if !found {
		t.Fatal("eve should be a red descendant of comedy")
	}
	if core.Descendants(ns["eve"], blue) != nil {
		t.Fatal("descendants in incompatible color should be nil")
	}
}

func TestSiblingAccessors(t *testing.T) {
	_, ns := buildMovieDB(t)
	// comedy's red children: name, slapstick, eve, ... siblings of slapstick.
	fs := core.FollowingSiblings(ns["slapstick"], red)
	if len(fs) == 0 || fs[0] != ns["eve"] {
		t.Fatalf("following siblings of slapstick = %v", fs)
	}
	ps := core.PrecedingSiblings(ns["slapstick"], red)
	if len(ps) == 0 || ps[0] != ns["comedy-name"] {
		t.Fatalf("preceding siblings of slapstick = %v", ps)
	}
	if core.FollowingSiblings(ns["genres"], green) != nil {
		t.Fatal("siblings in incompatible color should be nil")
	}
}

// TestIsAncestorAndRoot: ancestry holds in one colour only, and the
// parent chain of a node in a colour ends at that colour's root.
func TestIsAncestorAndRoot(t *testing.T) {
	db, ns := buildMovieDB(t)
	if !slices.Contains(core.Descendants(ns["genres"], red), ns["eve"]) {
		t.Fatal("genres should be a red ancestor of eve")
	}
	if slices.Contains(core.Descendants(ns["genres"], green), ns["eve"]) {
		t.Fatal("genres is not a green ancestor of eve")
	}
	root := ns["eve"]
	for p := core.Parent(root, red); p != nil; p = core.Parent(p, red) {
		root = p
	}
	if root != db.Document() {
		t.Fatal("red root should be the document")
	}
	if core.Parent(ns["eve"], blue) != nil {
		t.Fatal("eve has no parent in a colour it lacks")
	}
}

func TestCopySubtree(t *testing.T) {
	db, ns := buildMovieDB(t)
	cp, err := db.CopySubtree(ns["eve"], red)
	if err != nil {
		t.Fatal(err)
	}
	if cp.ID() == ns["eve"].ID() {
		t.Fatal("copy must have fresh identity")
	}
	if cp.HasColor(green) {
		t.Fatal("copy must only carry the requested color")
	}
	sv, _ := core.StringValue(cp, red)
	orig, _ := core.StringValue(ns["eve"], red)
	if sv != orig {
		t.Fatalf("copy string-value %q != original %q", sv, orig)
	}
	if _, err := db.CopySubtree(ns["eve"], blue); !errors.Is(err, core.ErrColorIncompatible) {
		t.Fatalf("copy in missing color: got %v", err)
	}
}

func TestLabel(t *testing.T) {
	_, ns := buildMovieDB(t)
	lbl := ns["eve"].Label()
	if !strings.HasPrefix(lbl, "GR") {
		t.Fatalf("label = %q, want GR prefix (sorted color initials)", lbl)
	}
}

func TestComputeStats(t *testing.T) {
	db, _ := buildMovieDB(t)
	s := db.ComputeStats()
	if s.Elements == 0 || s.TextNodes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MultiColored != 2 { // eve (red+green) and role (red+blue)
		t.Fatalf("MultiColored = %d, want 2", s.MultiColored)
	}
	if s.StructuralNodes != s.Elements+s.MultiColored {
		t.Fatalf("structural nodes = %d, want elements+multicolored = %d",
			s.StructuralNodes, s.Elements+s.MultiColored)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	db, ns := buildMovieDB(t)
	// Create a node colored red but never attached: invalid database.
	if _, err := db.NewElement("stray", red); err != nil {
		t.Fatal(err)
	}
	err := db.Validate()
	if err == nil {
		t.Fatal("stray colored node must fail validation")
	}
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError in chain, got %T: %v", err, err)
	}
	_ = ns
}

func TestComments(t *testing.T) {
	db := core.NewDatabase(red)
	root, _ := db.AddElement(db.Document(), "root", red)
	c, err := db.NewComment("a remark", red)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(root, c, red); err != nil {
		t.Fatal(err)
	}
	pi, err := db.NewPI("xml-stylesheet", "href=x", red)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(root, pi, red); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, _ := core.StringValue(c, red); v != "a remark" {
		t.Fatalf("comment string-value = %q", v)
	}
	if pi.Name() != "xml-stylesheet" {
		t.Fatalf("pi target = %q", pi.Name())
	}
}

func TestKindString(t *testing.T) {
	kinds := map[core.Kind]string{
		core.KindDocument:  "document",
		core.KindElement:   "element",
		core.KindAttribute: "attribute",
		core.KindText:      "text",
		core.KindNamespace: "namespace",
		core.KindPI:        "processing-instruction",
		core.KindComment:   "comment",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestChangeLogDropAndDrain: DropChanges and DrainChanges both empty the log
// and invalidate a mark taken before them; what is recorded after either is
// read back from a fresh mark.
func TestChangeLogDropAndDrain(t *testing.T) {
	db := core.NewDatabase("red")
	db.DrainChanges() // the colour's registration
	for _, empty := range []func(){
		db.DropChanges,
		func() { db.DrainChanges() },
	} {
		m := db.Mark()
		if _, err := db.AddElement(db.Document(), "a", "red"); err != nil {
			t.Fatal(err)
		}
		if got := db.LoggedChanges(); got != 1 {
			t.Fatalf("%d changes logged after one attach", got)
		}
		empty()
		if _, ok := db.ChangesSince(m); ok || db.LoggedChanges() != 0 {
			t.Fatalf("after emptying: mark valid %v, %d changes logged", ok, db.LoggedChanges())
		}
		m = db.Mark()
		if _, err := db.AddElement(db.Document(), "b", "red"); err != nil {
			t.Fatal(err)
		}
		if got, ok := db.ChangesSince(m); !ok || len(got) != 1 || got[0].Tag != "b" {
			t.Fatalf("changes since a fresh mark: %+v, %v", got, ok)
		}
		empty()
	}
}
