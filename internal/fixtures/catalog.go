package fixtures

import (
	"strconv"

	"colorfulxml/internal/core"
)

// Catalog is the two-color catalog of the repository benchmark (bench/data.go
// builds the same shape through the facade), with handles to its nodes.
type Catalog struct {
	DB       *core.Database
	Featured *core.Node
	Items    []*core.Node // item k
	Names    []*core.Node // its name, "Item k"
	Votes    []*core.Node // the votes of items 0, 3, 6, ...
}

// NewCatalog builds red catalog -> item* -> name("Item k"); every third item
// is also adopted under green featured and given a green votes(k mod 50)
// leaf. The change log is left drained.
func NewCatalog(items int) *Catalog {
	db := core.NewDatabase(Red, Green)
	c := &Catalog{DB: db}
	must := func(n *core.Node, err error) *core.Node {
		if err != nil {
			panic(err)
		}
		return n
	}
	catalog := must(db.AddElement(db.Document(), "catalog", Red))
	c.Featured = must(db.AddElement(db.Document(), "featured", Green))
	for k := 0; k < items; k++ {
		item := must(db.AddElement(catalog, "item", Red))
		c.Items = append(c.Items, item)
		c.Names = append(c.Names, must(db.AddElementText(item, "name", Red, "Item "+strconv.Itoa(k))))
		if k%3 == 0 {
			if err := db.Adopt(c.Featured, item, Green); err != nil {
				panic(err)
			}
			c.Votes = append(c.Votes, must(db.AddElementText(item, "votes", Green, strconv.Itoa(k%50))))
		}
	}
	db.DrainChanges()
	return c
}
