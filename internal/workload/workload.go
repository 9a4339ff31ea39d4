// Package workload defines the experiment workload of the paper's Table 2:
// sixteen TPC-W queries (TQ1–TQ16), four TPC-W updates (TU1–TU4), five
// SIGMOD-Record queries (SQ1–SQ5) and two SIGMOD-Record updates (SU1–SU2),
// each as TEXT in all three representations — MCXQuery for MCT, XQuery with
// value joins for shallow, plain-path XQuery for deep. The Figure 11/12
// complexity metrics are computed from the texts, and Table 2 runs them: a
// query through the plan compiler (internal/plan), an update through the
// update executor with a compiled binding — where the paper specified each
// physical plan by hand.
package workload

import (
	"context"
	"fmt"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
)

// Variant selects a representation.
type Variant string

// The three representations of Section 7.
const (
	MCT     Variant = "MCT"
	Shallow Variant = "Shallow"
	Deep    Variant = "Deep"
)

// Variants lists them in the paper's column order.
var Variants = []Variant{MCT, Shallow, Deep}

// Query is one read-only workload query.
type Query struct {
	ID   string
	Desc string
	// Colors is the number of color transitions the MCT plan needs; Trees is
	// the number of hierarchies involved (Table 2's annotation columns).
	Colors int
	Trees  int
	// Text per variant.
	Text map[Variant]string
}

// UpdateSpec is one update statement of the workload.
type UpdateSpec struct {
	ID     string
	Desc   string
	Colors int
	Trees  int
	Text   map[Variant]string
}

// Params carries the generated entity pools so texts can use data-derived
// constants.
type Params struct {
	E *datagen.TPCWEntities
	S *datagen.SigmodEntities
}

// Stores bundles, per variant, the database the generator built and the
// store loaded from it.
type Stores struct {
	MCT     *storage.Store
	Shallow *storage.Store
	Deep    *storage.Store
	Params  Params
	data    *datagen.Dataset
}

// Of returns the store for a variant.
func (s *Stores) Of(v Variant) *storage.Store {
	switch v {
	case MCT:
		return s.MCT
	case Shallow:
		return s.Shallow
	default:
		return s.Deep
	}
}

// DB returns the database a variant's store was loaded from.
func (s *Stores) DB(v Variant) *core.Database {
	switch v {
	case MCT:
		return s.data.MCT
	case Shallow:
		return s.data.Shallow
	default:
		return s.data.Deep
	}
}

// LoadTPCW generates and loads the TPC-W dataset at a scale.
func LoadTPCW(scale int, seed int64) (*Stores, error) {
	ds, err := datagen.TPCW(datagen.TPCWConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return loadStores(ds, Params{E: ds.Entities})
}

// LoadSigmod generates and loads the SIGMOD-Record dataset at a scale.
func LoadSigmod(scale int, seed int64) (*Stores, error) {
	ds, err := datagen.Sigmod(datagen.SigmodConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return loadStores(ds, Params{S: ds.Sigmod})
}

func loadStores(ds *datagen.Dataset, p Params) (*Stores, error) {
	st := &Stores{Params: p, data: ds}
	for _, v := range Variants {
		s, err := storage.Load(st.DB(v), 0)
		if err != nil {
			return nil, fmt.Errorf("workload: load %s: %w", v, err)
		}
		// The store now reflects everything the generator logged; an update's
		// drained log starts here.
		st.DB(v).DrainChanges()
		switch v {
		case MCT:
			st.MCT = s
		case Shallow:
			st.Shallow = s
		default:
			st.Deep = s
		}
	}
	return st, nil
}

// textSubs lists, per query or update, the illustrative literal constants
// its published texts carry together with pool-derived constants, so that
// every text selects something at every scale and seed.
var textSubs = map[string]func(p Params) [][2]string{
	"TQ3": func(p Params) [][2]string {
		o := p.E.Orders[0]
		return [][2]string{
			{"user000007", p.E.Customers[o.Customer-1].Uname},
			{"Japan", p.E.Countries[p.E.Addresses[o.Shipping-1].Country-1].Name},
		}
	},
	"TQ12": func(p Params) [][2]string {
		return [][2]string{{"A", p.E.Authors[0].Name}}
	},
	"TQ14": func(p Params) [][2]string {
		return [][2]string{{"A", p.E.Authors[1].Name}}
	},
	"TU1": func(p Params) [][2]string {
		return [][2]string{{"T", p.E.Items[0].Title}}
	},
	"TU2": func(p Params) [][2]string {
		return [][2]string{{"S", p.E.Addresses[0].Street}}
	},
	"TU4": func(p Params) [][2]string {
		return [][2]string{{"A", p.E.Authors[2].Name}}
	},
	"SQ1": func(p Params) [][2]string {
		return [][2]string{{"T", p.S.Articles[0].Title}}
	},
	"SQ3": func(p Params) [][2]string {
		topic := p.S.Topics[p.S.Articles[0].Topic-1]
		return [][2]string{{"E", p.S.Editors[topic.Editor-1].Name}}
	},
}

// FaithfulText returns the text of query or update id with its illustrative
// constants replaced by the pool-derived ones.
func FaithfulText(id, text string, p Params) string {
	if subs, ok := textSubs[id]; ok {
		for _, s := range subs(p) {
			text = strings.ReplaceAll(text, `"`+s[0]+`"`, `"`+s[1]+`"`)
		}
	}
	return text
}

// options are the compiler options for a variant's store: exact statistics
// from the store, and the document color for the uncolored texts of the
// single-hierarchy representations.
func options(s *storage.Store, v Variant) plan.Options {
	opt := plan.Options{Catalog: plan.StoreCatalog{Store: s}}
	if v != MCT {
		opt.DefaultColor = datagen.ColDoc
	}
	return opt
}

// Compile compiles a query's faithful text for a variant into a physical
// plan over the variant's store.
func Compile(q *Query, st *Stores, v Variant) (*plan.Compiled, error) {
	return plan.CompileQuery(FaithfulText(q.ID, q.Text[v], st.Params), options(st.Of(v), v))
}

// Run executes a compiled plan on s, as a prepared statement does, and
// renders each result row as its output value: the projected attribute, or
// the element's content.
func Run(c *plan.Compiled, s *storage.Store) ([]string, engine.Metrics, error) {
	ids, m, err := engine.ExecColumn(context.Background(), s, c.Mem, c.Root.Clone(), c.OutCol, c.Rows, nil)
	if err != nil {
		return nil, m, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		e, err := s.Elem(id)
		if err != nil {
			return nil, m, err
		}
		if c.OutAttr == "" {
			out[i] = e.Content
		} else {
			out[i] = e.Attr(c.OutAttr)
		}
	}
	return out, m, nil
}

// RunQuery compiles a query for one variant and runs it, returning one value
// per result row and the engine metrics.
func RunQuery(q *Query, st *Stores, v Variant) ([]string, engine.Metrics, error) {
	c, err := Compile(q, st, v)
	if err != nil {
		return nil, engine.Metrics{}, fmt.Errorf("workload: %s/%s: %w", q.ID, v, err)
	}
	return Run(c, st.Of(v))
}

// RunUpdate applies an update's faithful text to one variant the way the
// serving layer's DB.Update does, minus the log and the publication: the
// binding clauses run as a compiled plan on the store, the operations apply
// to the database, and the database's change log is replayed onto the store.
func RunUpdate(u *UpdateSpec, st *Stores, v Variant) (update.Result, error) {
	parsed, err := update.Parse(FaithfulText(u.ID, u.Text[v], st.Params))
	if err != nil {
		return update.Result{}, err
	}
	db, s := st.DB(v), st.Of(v)
	x := update.NewExecutor(db)
	tuples, err := x.BindCompiled(parsed, s, options(s, v))
	if err != nil {
		return update.Result{}, fmt.Errorf("workload: %s/%s: %w", u.ID, v, err)
	}
	res, err := x.ApplyTuples(parsed, tuples)
	if err != nil {
		return res, err
	}
	changes, overflow := db.DrainChanges()
	if overflow {
		return res, fmt.Errorf("workload: %s/%s: change log overflowed", u.ID, v)
	}
	return res, s.ApplyChanges(changes)
}

// Complexity is the Figure 11/12 metric pair for one query text.
type Complexity struct {
	PathExprs int
	Bindings  int
}

// QueryComplexity parses a query text as MCXQuery/XQuery and counts path
// expressions and variable bindings.
func QueryComplexity(text string) (Complexity, error) {
	e, err := mcxquery.ParseQuery(text)
	if err != nil {
		return Complexity{}, err
	}
	return Complexity{
		PathExprs: pathexpr.CountPaths(e),
		Bindings:  mcxquery.CountVariableBindings(e),
	}, nil
}

// UpdateComplexity parses an update text and counts the same metrics.
func UpdateComplexity(text string) (Complexity, error) {
	u, err := update.Parse(text)
	if err != nil {
		return Complexity{}, err
	}
	return Complexity{
		PathExprs: u.CountPathExpressions(),
		Bindings:  u.NumBindings(),
	}, nil
}
