package colorful_test

import (
	"strings"
	"testing"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
)

// buildSmall constructs a miniature movie database through the public API.
func buildSmall(t *testing.T) *colorful.DB {
	t.Helper()
	db := colorful.New("red", "green")
	doc := db.Document()
	genres, err := db.AddElement(doc, "movie-genres", "red")
	if err != nil {
		t.Fatal(err)
	}
	comedy, _ := db.AddElement(genres, "movie-genre", "red")
	if _, err := db.AddElementText(comedy, "name", "red", "Comedy"); err != nil {
		t.Fatal(err)
	}
	movie, _ := db.AddElement(comedy, "movie", "red")
	if _, err := db.AddElementText(movie, "name", "red", "All About Eve"); err != nil {
		t.Fatal(err)
	}
	awards, _ := db.AddElement(doc, "movie-awards", "green")
	oscar, _ := db.AddElement(awards, "movie-award", "green")
	if _, err := db.AddElementText(oscar, "name", "green", "Oscar"); err != nil {
		t.Fatal(err)
	}
	if err := db.Adopt(oscar, movie, "green"); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryThroughFacade(t *testing.T) {
	db := buildSmall(t)
	out, err := db.Query(`
for $m in document("db")/{red}descendant::movie[contains({red}child::name, "Eve")]
return createColor(black, <m-name>{ $m/{red}child::name }</m-name>)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Node == nil || out[0].Node.Name() != "m-name" {
		t.Fatalf("out = %+v", out)
	}
	if out[0].Value != "All About Eve" {
		t.Fatalf("value = %q", out[0].Value)
	}
}

func TestPathWithVars(t *testing.T) {
	db := buildSmall(t)
	movies, err := db.Path(`document("db")/{green}descendant::movie`, nil)
	if err != nil || len(movies) != 1 {
		t.Fatalf("movies = %v, %v", movies, err)
	}
	names, err := db.Path(`$m/{red}child::name`, map[string]*colorful.Node{"m": movies[0].Node})
	if err != nil || len(names) != 1 || names[0].Value != "All About Eve" {
		t.Fatalf("names = %v, %v", names, err)
	}
}

func TestUpdateThroughFacade(t *testing.T) {
	db := buildSmall(t)
	res, err := db.Update(`
for $m in document("db")/{green}descendant::movie
update $m { insert <votes>14</votes> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 1 || res.NodesTouched != 1 {
		t.Fatalf("res = %+v", res)
	}
	out, err := db.Path(`document("db")/{green}descendant::votes`, nil)
	if err != nil || len(out) != 1 || out[0].Value != "14" {
		t.Fatalf("votes = %v, %v", out, err)
	}
}

func TestXMLRoundTripThroughFacade(t *testing.T) {
	db := buildSmall(t)
	xml, err := db.XMLString(true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<mct") {
		t.Fatalf("xml = %.80s", xml)
	}
	back, err := colorful.UnmarshalXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := colorful.Isomorphic(db, back); !ok {
		t.Fatalf("round trip: %s", why)
	}
	var sb strings.Builder
	if err := db.WriteXML(&sb, false); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("writer variant produced nothing")
	}
}

// TestXMLRoundTripKeepsCommentsAndPIs: a comment and a processing
// instruction under a red element come back from the exchange XML.
func TestXMLRoundTripKeepsCommentsAndPIs(t *testing.T) {
	db := colorful.New("red")
	r, err := db.AddElement(db.Document(), "r", "red")
	if err != nil {
		t.Fatal(err)
	}
	comment, err := db.NewComment("hello", "red")
	if err != nil {
		t.Fatal(err)
	}
	pi, err := db.NewPI("note", "x=1", "red")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*colorful.Node{comment, pi} {
		if err := db.Append(r, n, "red"); err != nil {
			t.Fatal(err)
		}
	}
	xml, err := db.XMLString(false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := colorful.UnmarshalXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := colorful.Isomorphic(db, back); !ok {
		t.Fatalf("round trip of %s: %s", xml, why)
	}
}

func TestLabel(t *testing.T) {
	db := buildSmall(t)
	movies := db.MustQuery(`document("db")/{red}descendant::movie`)
	lbl := colorful.Label(movies[0].Node)
	if !strings.HasPrefix(lbl, "GR") {
		t.Fatalf("label = %q", lbl)
	}
}

func TestFacadeTypesAreCoreTypes(t *testing.T) {
	// The aliases interoperate with internal values held by advanced users.
	var n *colorful.Node = (*core.Node)(nil)
	_ = n
	var c colorful.Color = core.Color("x")
	if c != "x" {
		t.Fatal("alias mismatch")
	}
}

func TestMustQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuery should panic on bad query")
		}
	}()
	buildSmall(t).MustQuery(`for $x in`)
}
