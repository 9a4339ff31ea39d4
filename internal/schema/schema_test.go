package schema

import (
	"strings"
	"testing"
)

func TestFigure8RealColors(t *testing.T) {
	s := Figure8()
	if err := s.Validate(); err != nil {
		t.Fatalf("Figure8 should validate: %v", err)
	}
	cases := map[string][]string{
		"movie":       {"green", "red"},
		"movie-role":  {"blue", "red"},
		"name":        {"blue", "green", "red"},
		"payment":     {"blue"},
		"description": {"red"},
		"scene":       {"red"},
		"category":    {"green"},
		"votes":       {"green"},
		"actor":       {"blue"},
		"movie-genre": {"red"},
	}
	for elem, want := range cases {
		got := s.RealColors(elem)
		if len(got) != len(want) {
			t.Errorf("RealColors(%s) = %v, want %v", elem, got, want)
			continue
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Errorf("RealColors(%s) = %v, want %v", elem, got, want)
			}
		}
	}
	if !s.MultiColored("movie") || s.MultiColored("votes") {
		t.Fatal("MultiColored wrong")
	}
}

func TestIsLeafAndParentIn(t *testing.T) {
	s := Figure8()
	if !s.IsLeaf("votes") || !s.IsLeaf("name") || s.IsLeaf("movie") {
		t.Fatal("IsLeaf wrong")
	}
	if got := s.ParentIn("movie", "red"); got != "movie-genre" {
		t.Fatalf("ParentIn(movie, red) = %q", got)
	}
	if got := s.ParentIn("movie", "green"); got != "year" {
		t.Fatalf("ParentIn(movie, green) = %q", got)
	}
	if got := s.ParentIn("movie", "blue"); got != "" {
		t.Fatalf("ParentIn(movie, blue) = %q", got)
	}
	if got := s.ParentIn("movie-genres", "red"); got != "" {
		t.Fatalf("root has no parent, got %q", got)
	}
}

func TestQuantDefaults(t *testing.T) {
	s := Figure8()
	if got := s.Quant("movie-role", "red"); got != 10 {
		t.Fatalf("quant(movie-role, red) = %v", got)
	}
	if got := s.Quant("votes", "green"); got != 1 {
		t.Fatalf("default quant = %v", got)
	}
}

func TestProductionParsingQuantifiers(t *testing.T) {
	s := New()
	s.AddColor("c", "r")
	s.AddProduction("c", "r", "a", "b?", "d+", "e*")
	p := s.Production("c", "r")
	want := []Quant{One, Optional, OneOrMore, ZeroOrMore}
	for i, q := range want {
		if p.Children[i].Quant != q {
			t.Fatalf("child %d quant = %c, want %c", i, p.Children[i].Quant, q)
		}
	}
	if got := p.String(); !strings.Contains(got, "b?") || !strings.Contains(got, "e*") {
		t.Fatalf("production rendering: %s", got)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("empty schema should fail")
	}
	s := New()
	s.AddColor("c", "")
	if err := s.Validate(); err == nil {
		t.Fatal("missing root should fail")
	}
	// Cycle through a multi-colored type is rejected (Section 5.3
	// assumption); 'b' is multi-colored because it also appears in color d.
	s2 := New()
	s2.AddColor("c", "a")
	s2.AddColor("d", "b")
	s2.AddProduction("c", "a", "b")
	s2.AddProduction("c", "b", "a")
	s2.AddProduction("d", "b", "x")
	if err := s2.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle: %v", err)
	}
	// Recursion through single-colored types is legal (nested genres).
	s4 := New()
	s4.AddColor("c", "genre")
	s4.AddProduction("c", "genre", "name", "genre*")
	if err := s4.Validate(); err != nil {
		t.Fatalf("recursive single-colored type should validate: %v", err)
	}
	// Undeclared color.
	s3 := New()
	s3.AddColor("c", "a")
	s3.AddProduction("d", "a", "b")
	if err := s3.Validate(); err == nil {
		t.Fatal("undeclared color should fail")
	}
}

func TestElementTypes(t *testing.T) {
	s := Figure8()
	types := s.ElementTypes()
	if len(types) < 10 {
		t.Fatalf("types = %v", types)
	}
	for _, want := range []string{"movie", "movie-role", "payment", "name"} {
		found := false
		for _, ty := range types {
			if ty == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing type %s in %v", want, types)
		}
	}
}

// deepMovieSchema is the Deep-1 design of Example 1.1: actors are replicated
// under each movie, so actor ids determine actor values but not actor nodes.
func deepMovieSchema() *XMLSchema {
	d := &DTD{
		Root: "genres",
		Elems: map[string]DTDElem{
			"genres": {Children: []Child{{Elem: "genre", Quant: ZeroOrMore}}},
			"genre":  {Children: []Child{{Elem: "movie", Quant: ZeroOrMore}}},
			"movie":  {Children: []Child{{Elem: "name", Quant: One}, {Elem: "actor", Quant: ZeroOrMore}}},
			"actor":  {Children: []Child{{Elem: "name", Quant: One}}, Attrs: []string{"id"}},
			"name":   {HasContent: true},
		},
	}
	return &XMLSchema{
		DTD: d,
		FDs: []FD{
			// An actor id determines the actor's name content...
			{LHS: []Path{"genres/genre/movie/actor/@id"},
				RHS: "genres/genre/movie/actor/name/content()"},
			// ...but NOT the actor node (replicated per movie): no such FD.
		},
	}
}

// shallowMovieSchema is the Shallow-1 design: actors stored once at the top,
// with id as a key for the actor node itself.
func shallowMovieSchema() *XMLSchema {
	d := &DTD{
		Root: "db",
		Elems: map[string]DTDElem{
			"db":    {Children: []Child{{Elem: "actor", Quant: ZeroOrMore}, {Elem: "movie", Quant: ZeroOrMore}}},
			"actor": {Children: []Child{{Elem: "name", Quant: One}}, Attrs: []string{"id"}},
			"movie": {Children: []Child{{Elem: "name", Quant: One}}, Attrs: []string{"id", "roleIdRefs"}},
			"name":  {HasContent: true},
		},
	}
	return &XMLSchema{
		DTD: d,
		FDs: []FD{
			{LHS: []Path{"db/actor/@id"}, RHS: "db/actor/name/content()"},
			{LHS: []Path{"db/actor/@id"}, RHS: "db/actor"}, // id is a key
			{LHS: []Path{"db/movie/@id"}, RHS: "db/movie/name/content()"},
			{LHS: []Path{"db/movie/@id"}, RHS: "db/movie"},
		},
	}
}

func TestDeepSchemaIsDeep(t *testing.T) {
	s := deepMovieSchema()
	ok, witness := s.Shallow()
	if ok {
		t.Fatal("Deep-1 schema should be deep")
	}
	if witness == nil || !strings.Contains(string(witness.RHS), "content()") {
		t.Fatalf("witness = %v", witness)
	}
}

func TestShallowSchemaIsShallow(t *testing.T) {
	s := shallowMovieSchema()
	if ok, w := s.Shallow(); !ok {
		t.Fatalf("Shallow-1 schema should be shallow; witness %v", w)
	}
}

func TestFDBasics(t *testing.T) {
	fd := FD{LHS: []Path{"a/b"}, RHS: "a/b"}
	if !fd.Trivial() {
		t.Fatal("reflexive FD is trivial")
	}
	p := Path("a/b/@id")
	if !p.IsValuePath() {
		t.Fatal("@id is a value path")
	}
	parent, ok := p.Parent()
	if !ok || parent != "a/b" {
		t.Fatalf("parent = %q", parent)
	}
	if _, ok := Path("a").Parent(); ok {
		t.Fatal("root path has no parent")
	}
	if got := fd.String(); !strings.Contains(got, "->") {
		t.Fatalf("FD rendering: %s", got)
	}
}

func TestClosureIncludesAncestors(t *testing.T) {
	s := shallowMovieSchema()
	// Knowing db/actor/@id pins the actor node, which pins its ancestors.
	if !s.Implies(FD{LHS: []Path{"db/actor/@id"}, RHS: "db"}) {
		t.Fatal("closure should include ancestors of determined nodes")
	}
	// Transitivity via candidates: id -> actor -> ... name content (direct).
	if !s.Implies(FD{LHS: []Path{"db/actor/@id"}, RHS: "db/actor/name"}) {
		t.Fatal("id determines the name node via the actor node")
	}
}
