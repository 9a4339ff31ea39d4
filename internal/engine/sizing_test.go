package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// allocBytes returns the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func catalogStore(t *testing.T, items int) *storage.Store {
	t.Helper()
	st, err := storage.Load(fixtures.NewCatalog(items).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// execOnce runs a compiled plan the way a served query does: a clone of the
// prototype, scratch from the plan's pool, one column out.
func execOnce(t *testing.T, st *storage.Store, c *plan.Compiled) int {
	t.Helper()
	ids, _, err := engine.ExecColumn(nil, st, c.Mem, c.Root.Clone(), c.OutCol, c.Rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// TestScratchSizedToRows: execution scratch is sized to the rows it holds,
// pooled or not. A one-row plan run once on a fresh pool allocates a few
// rows' worth of buffer, not a 1 024-row one per column, and leaves the pool
// holding as little.
func TestScratchSizedToRows(t *testing.T) {
	st := catalogStore(t, 2000)
	c, err := plan.CompileQuery(`document("db")/{red}descendant::name[. = "Item 999"]`, plan.Options{Catalog: plan.StoreCatalog{Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	bytes := allocBytes(func() { rows = execOnce(t, st, c) })
	if rows != 1 {
		t.Fatalf("point plan returned %d rows, want 1", rows)
	}
	if held := c.Mem.Stats().Bytes; bytes >= 8<<10 || held >= 8<<10 {
		t.Fatalf("one-row execution allocated %d bytes and left the pool holding %d, want both under 8 kB\n%s", bytes, held, engine.Explain(c.Root))
	}
}

// TestWarmPlanAllocatesNoScratch: a hot plan grows its buffers and chunks to
// full size in its first runs, and from then on draws every one of them from
// the pool — the recycled-buffer counter rises and the bytes a run allocates
// stop moving. This is what recycling outgrown buffers broke: they filled
// the free list with small buffers and the big ones were dropped.
func TestWarmPlanAllocatesNoScratch(t *testing.T) {
	const items = 20000
	st := catalogStore(t, items)
	for _, tc := range []struct {
		name, text string
		rows       int
	}{
		{"pathscan", `document("db")/{red}descendant::item/{red}child::name`, items},
		{"flwor", `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`, (items + 2) / 3},
		// Sort and Dedup build sides: arena chunks as well as buffers.
		{"crosscolor", `for $i in document("db")/{green}descendant::item[{green}child::votes = "7"] return $i/{red}child::name`, 133},
	} {
		c, err := plan.CompileQuery(tc.text, plan.Options{Catalog: plan.StoreCatalog{Store: st}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			execOnce(t, st, c)
		}
		var runs [3]uint64
		for i := range runs {
			before := c.Mem.Stats().Reused
			rows := 0
			runs[i] = allocBytes(func() { rows = execOnce(t, st, c) })
			if rows != tc.rows {
				t.Fatalf("%s: %d rows, want %d", tc.name, rows, tc.rows)
			}
			if c.Mem.Stats().Reused == before {
				t.Fatalf("%s: warm run %d took nothing from the pool", tc.name, i)
			}
		}
		// What is left per run is the answer (8 bytes an id) and a constant
		// under one full buffer (57 kB): operator clones, row slices of the
		// build sides. Runs may differ by what the runtime allocates
		// meanwhile, never by a buffer (at least 32 rows, 1.8 kB).
		limit := uint64(8*tc.rows) + 32<<10
		lo, hi := slices.Min(runs[:]), slices.Max(runs[:])
		if hi > limit || hi-lo >= 1<<10 {
			t.Errorf("%s: warm runs allocated %v bytes, want the same to 1 kB and at most %d each\n%s", tc.name, runs, limit, engine.Explain(c.Root))
		}
	}
}
