package colorful

import (
	"fmt"
	"path/filepath"
	"testing"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
)

// TestSubtreeInsertIsIncremental: an update that lands a subtree at once —
// `insert <item><name>…</name></item>` as a last child — is logged as its
// leaves in pre-order, so on an in-memory database it is one incremental
// snapshot apply and on a durable one a WAL append: no full rebuild and no
// checkpoint, however many arrive (enough here to fill the catalog's and an
// item's interval several times over). The compiled route then answers like
// the evaluator, in order, and a reopened directory like both.
func TestSubtreeInsertIsIncremental(t *testing.T) {
	queries := []string{
		`document("db")/{red}descendant::item/{red}child::name`,
		`document("db")/{red}descendant::name`,
		`document("db")/{red}descendant::part/{red}child::name`,
		`document("db")/{red}child::catalog/{red}child::item`,
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprint("durable=", durable), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db := New("red", "green")
			if durable {
				var err error
				if db, err = OpenOptions(dir, Options{NoSync: true, ValidateInvariants: true}, "red", "green"); err != nil {
					t.Fatal(err)
				}
			}
			defer func() { db.Close() }()
			catalog, err := db.AddElement(db.Document(), "catalog", "red")
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 30; k++ {
				item, err := db.AddElement(catalog, "item", "red")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.AddElementText(item, "name", "red", fmt.Sprint("Item ", k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Refresh(); err != nil {
				t.Fatal(err)
			}
			maint, checkpoints := db.MaintStats(), db.DurabilityStats().Checkpoints
			for r := 0; r < 40; r++ {
				for _, u := range []string{
					fmt.Sprintf(`for $c in document("db")/{red}child::catalog update $c { insert <item><name>Item new %d</name></item> }`, r),
					fmt.Sprintf(`for $n in document("db")/{red}descendant::name[. = "Item 7"], $i in $n/{red}parent::item update $i { insert <part><name>Part %d</name><note>n</note></part> }`, r),
				} {
					if res, err := db.Update(u); err != nil || res.Tuples != 1 {
						t.Fatalf("%s: %+v, %v", u, res, err)
					}
				}
			}
			if got := db.MaintStats(); got.FullRebuilds != maint.FullRebuilds || got.IncrementalApplies != maint.IncrementalApplies+80 {
				t.Fatalf("80 subtree inserts: maintenance went from %+v to %+v", maint, got)
			}
			if got := db.DurabilityStats().Checkpoints; got != checkpoints {
				t.Fatalf("80 subtree inserts took %d checkpoints", got-checkpoints)
			}

			answers := func(db *DB) [][]string {
				t.Helper()
				var out [][]string
				for _, q := range queries {
					if _, err := db.Explain(q); err != nil {
						t.Fatalf("%s does not compile: %v", q, err)
					}
					items, err := db.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					seq, err := mcxquery.NewEvaluator(db.Database).Query(q)
					if err != nil {
						t.Fatal(err)
					}
					var compiled, evaluated []string
					for _, it := range items {
						compiled = append(compiled, it.Value)
					}
					for _, it := range seq {
						evaluated = append(evaluated, pathexpr.ItemString(it))
					}
					if fmt.Sprint(compiled) != fmt.Sprint(evaluated) {
						t.Fatalf("%s: compiled\n%v\nevaluator\n%v", q, compiled, evaluated)
					}
					out = append(out, compiled)
				}
				return out
			}
			before := answers(db)
			if len(before[0]) != 70 || len(before[1]) != 70+40 || len(before[2]) != 40 || before[3][69] != "Item new 39" {
				t.Fatalf("item names %d, names %d, part names %d, last item %q", len(before[0]), len(before[1]), len(before[2]), before[3][69])
			}
			if !durable {
				return
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = OpenOptions(dir, Options{NoSync: true, ValidateInvariants: true}); err != nil {
				t.Fatal(err)
			}
			if r := db.Recovery(); r.CheckpointLoaded || r.RecordsReplayed < 80 {
				t.Fatalf("the directory was not a pure log: %+v", r)
			}
			if after := answers(db); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("after reopen\n%v\nbefore\n%v", after, before)
			}
		})
	}
}
