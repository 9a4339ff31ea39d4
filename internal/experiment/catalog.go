package experiment

import (
	"fmt"

	"colorfulxml/colorful"
)

// NewCatalogDB builds the in-memory catalog store cmd/mctserved serves and
// the server tests drive: a red catalog of items with names; every third
// item is adopted under the green featured root and given a green votes
// counter.
func NewCatalogDB(scale int) (*colorful.DB, error) {
	db := colorful.New("red", "green")
	if err := populateCatalog(db, scale); err != nil {
		return nil, err
	}
	return db, nil
}

func populateCatalog(db *colorful.DB, scale int) error {
	root, err := db.AddElement(db.Document(), "catalog", "red")
	if err != nil {
		return err
	}
	featured, err := db.AddElement(db.Document(), "featured", "green")
	if err != nil {
		return err
	}
	for i := 0; i < scale; i++ {
		item, err := db.AddElement(root, "item", "red")
		if err != nil {
			return err
		}
		if _, err := db.AddElementText(item, "name", "red", fmt.Sprintf("Item %d", i)); err != nil {
			return err
		}
		if i%3 == 0 {
			if err := db.Adopt(featured, item, "green"); err != nil {
				return err
			}
			if _, err := db.AddElementText(item, "votes", "green", fmt.Sprint(i%50)); err != nil {
				return err
			}
		}
	}
	return nil
}
