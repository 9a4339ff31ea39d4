package workload_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"colorfulxml/internal/experiment"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/workload"
)

var (
	once    sync.Once
	tpcwSt  *workload.Stores
	sigSt   *workload.Stores
	loadErr error
)

func stores(t *testing.T) (*workload.Stores, *workload.Stores) {
	t.Helper()
	once.Do(func() {
		tpcwSt, loadErr = workload.LoadTPCW(1, 1)
		if loadErr != nil {
			return
		}
		sigSt, loadErr = workload.LoadSigmod(1, 5)
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return tpcwSt, sigSt
}

// distinctSet is the sorted set of distinct values.
func distinctSet(values []string) []string {
	out := distinctInOrder(values)
	sort.Strings(out)
	return out
}

// TestQueriesAgreeAcrossVariants is the central correctness check of the
// reproduction: every Table 2 query must return the same set of values on
// the MCT, shallow and deep representations of the same entity pool — at
// the test scale and at the configuration cmd/mctbench runs by default.
func TestQueriesAgreeAcrossVariants(t *testing.T) {
	tp, sg := stores(t)
	run := func(name string, qs []*workload.Query, st *workload.Stores) {
		for _, q := range qs {
			mct, _, err := workload.RunQuery(q, st, workload.MCT)
			if err != nil {
				t.Fatalf("%s %s MCT: %v", name, q.ID, err)
			}
			if len(mct) == 0 {
				t.Errorf("%s %s returned no results on MCT — query constants too selective", name, q.ID)
				continue
			}
			want := distinctSet(mct)
			for _, v := range []workload.Variant{workload.Shallow, workload.Deep} {
				res, _, err := workload.RunQuery(q, st, v)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, q.ID, v, err)
				}
				if got := distinctSet(res); !equalStrings(got, want) {
					t.Errorf("%s %s: %s disagrees with MCT: %d vs %d values\nMCT: %.10v\n%s: %.10v",
						name, q.ID, v, len(want), len(got), want, v, got)
				}
			}
		}
	}
	run("scale 1", workload.TPCWQueries(), tp)
	run("scale 1", workload.SigmodQueries(), sg)
	cfg := experiment.DefaultConfig
	dtp, err := workload.LoadTPCW(cfg.TPCWScale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dsg, err := workload.LoadSigmod(cfg.SigmodScale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	run("default config", workload.TPCWQueries(), dtp)
	run("default config", workload.SigmodQueries(), dsg)
}

// TestDeepDuplicateVariants checks the "*D" rows: on the queries that reach
// a replicated entity, deep returns one row per copy — more rows than
// distinct values — where MCT returns each entity once.
func TestDeepDuplicateVariants(t *testing.T) {
	tp, sg := stores(t)
	for _, tc := range []struct {
		q  *workload.Query
		st *workload.Stores
	}{
		{findQuery(t, "TQ7"), tp},
		{findQuery(t, "TQ12"), tp},
		{findQuery(t, "TQ16"), tp},
		{findQuery(t, "SQ4"), sg},
	} {
		mct, _, err := workload.RunQuery(tc.q, tc.st, workload.MCT)
		if err != nil {
			t.Fatal(err)
		}
		deep, _, err := workload.RunQuery(tc.q, tc.st, workload.Deep)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(distinctSet(mct)); len(mct) != n {
			t.Errorf("%s: MCT returns %d rows for %d values", tc.q.ID, len(mct), n)
		}
		if n := len(distinctSet(deep)); len(deep) <= n {
			t.Errorf("%s: deep returns %d rows for %d values, want one per copy", tc.q.ID, len(deep), n)
		}
	}
}

func findQuery(t *testing.T, id string) *workload.Query {
	t.Helper()
	for _, q := range append(workload.TPCWQueries(), workload.SigmodQueries()...) {
		if q.ID == id {
			return q
		}
	}
	t.Fatalf("unknown query %s", id)
	return nil
}

// TestOperatorShapeMatchesAnnotations: the compiled MCT plans cross colors
// exactly where Table 2's Colors column says, and no MCT plan value-joins;
// the shallow plans value-join exactly on the multi-tree queries.
func TestOperatorShapeMatchesAnnotations(t *testing.T) {
	tp, sg := stores(t)
	check := func(qs []*workload.Query, st *workload.Stores) {
		for _, q := range qs {
			_, m, err := workload.RunQuery(q, st, workload.MCT)
			if err != nil {
				t.Fatal(err)
			}
			// A where-clause identity join ($o = $a) relates two bindings of
			// one element made in different colors: it is how the compiler
			// lowers a color transition between variables.
			crossings := m.CrossJoins + m.IDJoins
			if q.Colors > 0 && crossings == 0 {
				t.Errorf("%s: expected color crossings, saw none (%+v)", q.ID, m)
			}
			if q.Colors == 0 && crossings > 0 {
				t.Errorf("%s: unexpected crossings (%+v)", q.ID, m)
			}
			// TQ15's inequality is a nested-loop join, whose probes count as
			// value joins in every representation.
			if m.ValueJoins > 0 && q.ID != "TQ15" {
				t.Errorf("%s: MCT plan should not value join (%+v)", q.ID, m)
			}
			_, ms, err := workload.RunQuery(q, st, workload.Shallow)
			if err != nil {
				t.Fatal(err)
			}
			if q.Trees > 1 && ms.ValueJoins == 0 {
				t.Errorf("%s: shallow should value join on a %d-tree query", q.ID, q.Trees)
			}
			if q.Trees == 1 && ms.ValueJoins > 0 {
				t.Errorf("%s: shallow should not value join on a one-tree query", q.ID)
			}
		}
	}
	check(workload.TPCWQueries(), tp)
	check(workload.SigmodQueries(), sg)
}

// TestUpdates runs every update on fresh stores and checks the Table 2
// update shape: MCT and shallow touch the same number of nodes; deep touches
// at least as many (strictly more for the replication-afflicted updates).
// Afterwards the store answers as a fresh load of the updated database does.
func TestUpdates(t *testing.T) {
	// Fresh stores: updates mutate.
	tp, err := workload.LoadTPCW(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.LoadSigmod(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	strictlyMore := map[string]bool{"TU1": true, "TU4": true, "SU1": true, "SU2": true}
	run := func(us []*workload.UpdateSpec, st *workload.Stores) {
		for _, u := range us {
			touched := map[workload.Variant]int{}
			for _, v := range workload.Variants {
				res, err := workload.RunUpdate(u, st, v)
				if err != nil {
					t.Fatalf("%s %s: %v", u.ID, v, err)
				}
				touched[v] = res.NodesTouched
			}
			nMCT, nSh, nDp := touched[workload.MCT], touched[workload.Shallow], touched[workload.Deep]
			if nMCT == 0 {
				t.Errorf("%s: no nodes updated on MCT", u.ID)
			}
			if nMCT != nSh {
				t.Errorf("%s: MCT %d vs shallow %d nodes", u.ID, nMCT, nSh)
			}
			if nDp < nMCT {
				t.Errorf("%s: deep %d < MCT %d", u.ID, nDp, nMCT)
			}
			if strictlyMore[u.ID] && nDp <= nMCT {
				t.Errorf("%s: deep should touch replicated copies (%d vs %d)", u.ID, nDp, nMCT)
			}
		}
	}
	run(workload.TPCWUpdates(), tp)
	run(workload.SigmodUpdates(), sg)
	for _, v := range workload.Variants {
		if err := sameAsReload(workload.TPCWQueries(), tp, v); err != nil {
			t.Errorf("TPC-W %s: %v", v, err)
		}
		if err := sameAsReload(workload.SigmodQueries(), sg, v); err != nil {
			t.Errorf("SIGMOD %s: %v", v, err)
		}
	}
}

// TestQueryTextsParse: every query text in every variant must parse with the
// MCXQuery parser, and every update text with the update parser — they feed
// the Figure 11/12 metrics.
func TestQueryTextsParse(t *testing.T) {
	for _, q := range append(workload.TPCWQueries(), workload.SigmodQueries()...) {
		for v, text := range q.Text {
			c, err := workload.QueryComplexity(text)
			if err != nil {
				t.Errorf("%s/%s does not parse: %v\n%s", q.ID, v, err, text)
				continue
			}
			if c.PathExprs == 0 {
				t.Errorf("%s/%s: no path expressions counted", q.ID, v)
			}
			if c.Bindings == 0 {
				t.Errorf("%s/%s: no bindings counted", q.ID, v)
			}
		}
	}
	for _, u := range append(workload.TPCWUpdates(), workload.SigmodUpdates()...) {
		for v, text := range u.Text {
			if _, err := workload.UpdateComplexity(text); err != nil {
				t.Errorf("%s/%s does not parse: %v\n%s", u.ID, v, err, text)
			}
		}
	}
}

// TestShallowNeverSimplerThanMCT is Figure 11/12's claim: the shallow
// formulation needs at least as many path expressions and bindings as MCT,
// and strictly more on multi-tree queries.
func TestShallowNeverSimplerThanMCT(t *testing.T) {
	for _, q := range append(workload.TPCWQueries(), workload.SigmodQueries()...) {
		mct, err := workload.QueryComplexity(q.Text[workload.MCT])
		if err != nil {
			t.Fatal(err)
		}
		sh, err := workload.QueryComplexity(q.Text[workload.Shallow])
		if err != nil {
			t.Fatal(err)
		}
		if sh.Bindings < mct.Bindings {
			t.Errorf("%s: shallow bindings %d < MCT %d", q.ID, sh.Bindings, mct.Bindings)
		}
		if q.Trees > 1 && sh.Bindings <= mct.Bindings && sh.PathExprs <= mct.PathExprs {
			t.Errorf("%s: multi-tree query should be more complex in shallow (MCT %+v, shallow %+v)",
				q.ID, mct, sh)
		}
	}
}

// sameAsReload requires every query to return, in order, the values it
// returns on a store freshly loaded from the variant's database.
func sameAsReload(qs []*workload.Query, st *workload.Stores, v workload.Variant) error {
	s, err := storage.Load(st.DB(v), 0)
	if err != nil {
		return err
	}
	reloaded := &workload.Stores{MCT: s, Shallow: s, Deep: s, Params: st.Params}
	for _, q := range qs {
		want, _, err := workload.RunQuery(q, reloaded, v)
		if err != nil {
			return err
		}
		got, _, err := workload.RunQuery(q, st, v)
		if err != nil {
			return err
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("%s returns %d values on the updated store, %d on a reload", q.ID, len(got), len(want))
		}
	}
	return nil
}
