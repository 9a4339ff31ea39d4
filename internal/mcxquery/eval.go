package mcxquery

import (
	"fmt"
	"sort"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/pathexpr"
)

// Evaluator evaluates MCXQuery expressions against an MCT database.
//
// Evaluation of constructor expressions follows the paper's Section 4.2:
// enclosed expressions retain node identities; new nodes are created only by
// the constructor itself (and by createCopy); createColor adds a color to
// every node of its argument, materializing constructed trees as new colored
// trees attached under the document node.
type Evaluator struct {
	DB *core.Database
	// DefaultResultColor is applied when a constructed element escapes the
	// query without an explicit createColor (plain-XQuery usage). Defaults
	// to "result".
	DefaultResultColor core.Color
	// DefaultColor, when set, is used by location steps without a color
	// specification when no color can be inherited.
	DefaultColor core.Color
}

// NewEvaluator creates an evaluator with default settings.
func NewEvaluator(db *core.Database) *Evaluator {
	return &Evaluator{DB: db, DefaultResultColor: "result"}
}

// pending is an unmaterialized constructed element: pure data until
// createColor assigns its first color and creates the nodes.
type pending struct {
	name    string
	attrs   []CtorAttr
	content []pathexpr.Item // node items, atomic items, or nested pendings
}

// pendingOf extracts a pending constructor from an item, if present.
func pendingOf(it pathexpr.Item) (*pending, bool) {
	p, ok := it.Atom.(*pending)
	return p, ok
}

// Query parses and evaluates src, returning the result sequence.
func (ev *Evaluator) Query(src string) (pathexpr.Sequence, error) {
	e, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return ev.Eval(e)
}

// Eval evaluates a parsed expression. Constructed elements that were never
// passed through createColor are materialized in DefaultResultColor.
func (ev *Evaluator) Eval(e pathexpr.Expr) (pathexpr.Sequence, error) {
	env := ev.newEnv(nil)
	out, err := pathexpr.Eval(env, e)
	if err != nil {
		return nil, err
	}
	return ev.finalize(out)
}

// EvalEnv evaluates with pre-bound variables.
func (ev *Evaluator) EvalEnv(e pathexpr.Expr, vars map[string]pathexpr.Sequence) (pathexpr.Sequence, error) {
	env := ev.newEnv(vars)
	out, err := pathexpr.Eval(env, e)
	if err != nil {
		return nil, err
	}
	return ev.finalize(out)
}

func (ev *Evaluator) newEnv(vars map[string]pathexpr.Sequence) *pathexpr.Env {
	return &pathexpr.Env{
		DB:           ev.DB,
		Vars:         vars,
		DefaultColor: ev.DefaultColor,
		Ext:          ev.evalExt,
	}
}

// ExtEval exposes the extension-evaluation hook so other packages (the
// update language) can build pathexpr environments that understand FLWOR,
// constructors, createColor and createCopy.
func (ev *Evaluator) ExtEval() func(*pathexpr.Env, pathexpr.Expr, pathexpr.Item, int, int) (pathexpr.Sequence, bool, error) {
	return ev.evalExt
}

// Materialize converts an item for placement into a colored tree: a pending
// constructor becomes a real node tree with first color c (attached under
// parent when parent is non-nil), a node item is returned unchanged, and an
// atomic item yields nil (the caller renders it as text).
func (ev *Evaluator) Materialize(it pathexpr.Item, c core.Color, parent *core.Node) (*core.Node, error) {
	ev.DB.AddDatabaseColor(c)
	if it.Node != nil {
		return it.Node, nil
	}
	if p, ok := pendingOf(it); ok {
		return ev.materialize(p, c, parent)
	}
	return nil, nil
}

// finalize materializes any pending constructors that escaped without an
// explicit createColor.
func (ev *Evaluator) finalize(seq pathexpr.Sequence) (pathexpr.Sequence, error) {
	needs := false
	for _, it := range seq {
		if _, ok := pendingOf(it); ok {
			needs = true
			break
		}
	}
	if !needs {
		return seq, nil
	}
	c := ev.DefaultResultColor
	if c == "" {
		c = "result"
	}
	return ev.applyColor(c, seq)
}

// evalExt evaluates the extension expressions and functions.
func (ev *Evaluator) evalExt(env *pathexpr.Env, e pathexpr.Expr, item pathexpr.Item, pos, size int) (pathexpr.Sequence, bool, error) {
	switch x := e.(type) {
	case *FLWOR:
		out, err := ev.evalFLWOR(env, x, item, pos, size)
		return out, true, err
	case *IfExpr:
		cond, err := pathexpr.EvalItem(env, x.Cond, item, pos, size)
		if err != nil {
			return nil, true, err
		}
		b, err := pathexpr.EffectiveBool(cond)
		if err != nil {
			return nil, true, err
		}
		branch := x.Then
		if !b {
			branch = x.Else
		}
		out, err := pathexpr.EvalItem(env, branch, item, pos, size)
		return out, true, err
	case *SeqExpr:
		var out pathexpr.Sequence
		for _, sub := range x.Items {
			v, err := pathexpr.EvalItem(env, sub, item, pos, size)
			if err != nil {
				return nil, true, err
			}
			out = append(out, v...)
		}
		return out, true, nil
	case *TextCtor:
		return pathexpr.Sequence{pathexpr.AtomItem(x.Text)}, true, nil
	case *ElementCtor:
		out, err := ev.evalCtor(env, x, item, pos, size)
		return out, true, err
	case *pathexpr.Call:
		switch x.Name {
		case "createColor":
			out, err := ev.evalCreateColor(env, x, item, pos, size)
			return out, true, err
		case "createCopy":
			out, err := ev.evalCreateCopy(env, x, item, pos, size)
			return out, true, err
		}
		return nil, false, nil
	default:
		return nil, false, nil
	}
}

func (ev *Evaluator) evalFLWOR(env *pathexpr.Env, f *FLWOR, item pathexpr.Item, pos, size int) (pathexpr.Sequence, error) {
	type tuple struct{ env *pathexpr.Env }
	filters := whereFilters(f)
	// keep applies the where conjuncts filed under one clause to a tuple it
	// just bound.
	keep := func(env *pathexpr.Env, conds []pathexpr.Expr) (bool, error) {
		for _, c := range conds {
			v, err := pathexpr.EvalItem(env, c, item, pos, size)
			if err != nil {
				return false, err
			}
			if b, err := pathexpr.EffectiveBool(v); err != nil || !b {
				return false, err
			}
		}
		return true, nil
	}
	tuples := []tuple{{env: env}}
	for i, cl := range f.Clauses {
		var next []tuple
		var v pathexpr.Sequence
		shared := invariant(f, i)
		for j, tp := range tuples {
			if j == 0 || !shared {
				var err error
				if v, err = pathexpr.EvalItem(tp.env, cl.Expr, item, pos, size); err != nil {
					return nil, err
				}
			}
			bound := []pathexpr.Sequence{v}
			if !cl.Let {
				bound = bound[:0]
				for _, it := range v {
					bound = append(bound, pathexpr.Sequence{it})
				}
			}
			for _, b := range bound {
				e := tp.env.Bind(cl.Var, b)
				ok, err := keep(e, filters[i])
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, tuple{env: e})
				}
			}
		}
		tuples = next
	}
	if len(f.OrderBy) > 0 {
		type keyed struct {
			tp   tuple
			keys []any
		}
		rows := make([]keyed, len(tuples))
		for i, tp := range tuples {
			keys := make([]any, len(f.OrderBy))
			for j, k := range f.OrderBy {
				v, err := pathexpr.EvalItem(tp.env, k.Expr, item, pos, size)
				if err != nil {
					return nil, err
				}
				if len(v) > 0 {
					keys[j] = atomOf(v[0])
				}
			}
			rows[i] = keyed{tp: tp, keys: keys}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for j, k := range f.OrderBy {
				cmp := compareAny(rows[a].keys[j], rows[b].keys[j])
				if cmp == 0 {
					continue
				}
				if k.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		for i := range rows {
			tuples[i] = rows[i].tp
		}
	}
	var out pathexpr.Sequence
	for _, tp := range tuples {
		v, err := pathexpr.EvalItem(tp.env, f.Return, item, pos, size)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// whereFilters splits the where clause into its top-level conjuncts and
// files each under the clause after which it can first be evaluated: the
// last one binding a variable it reads (the first clause, for a conjunct
// that reads none). A tuple is then dropped as soon as one conjunct fails,
// and the tuples that survive, in their order, are those of filtering the
// full product of the clauses, which is never built.
func whereFilters(f *FLWOR) [][]pathexpr.Expr {
	out := make([][]pathexpr.Expr, len(f.Clauses))
	var split func(e pathexpr.Expr)
	split = func(e pathexpr.Expr) {
		if b, ok := e.(*pathexpr.Binary); ok && b.Op == pathexpr.OpAnd {
			split(b.L)
			split(b.R)
			return
		}
		reads, _ := scan(e)
		at := 0
		for i, cl := range f.Clauses {
			if reads[cl.Var] {
				at = i
			}
		}
		out[at] = append(out[at], e)
	}
	if f.Where != nil {
		split(f.Where)
	}
	return out
}

// invariant reports whether clause i has the same value for every tuple, so
// that it is evaluated once: it reads no variable an earlier clause binds,
// and it constructs no node (a constructor makes new ones on every run).
func invariant(f *FLWOR, i int) bool {
	reads, constructs := scan(f.Clauses[i].Expr)
	if constructs {
		return false
	}
	for _, cl := range f.Clauses[:i] {
		if reads[cl.Var] {
			return false
		}
	}
	return true
}

// scan returns the variables an expression reads and whether it constructs
// nodes.
func scan(e pathexpr.Expr) (reads map[string]bool, constructs bool) {
	reads = map[string]bool{}
	pathexpr.Walk(e, func(x pathexpr.Expr) {
		switch x := x.(type) {
		case *pathexpr.PathExpr:
			reads[x.Var] = true
		case *pathexpr.VarRef:
			reads[x.Name] = true
		case *ElementCtor:
			constructs = true
		case *pathexpr.Call:
			constructs = constructs || x.Name == "createColor" || x.Name == "createCopy"
		}
	})
	return reads, constructs
}

// evalCtor evaluates an element constructor into a pending tree. Enclosed
// expressions retain node identities (no copying).
func (ev *Evaluator) evalCtor(env *pathexpr.Env, c *ElementCtor, item pathexpr.Item, pos, size int) (pathexpr.Sequence, error) {
	p := &pending{name: c.Name, attrs: c.Attrs}
	for _, sub := range c.Content {
		v, err := pathexpr.EvalItem(env, sub, item, pos, size)
		if err != nil {
			return nil, err
		}
		p.content = append(p.content, v...)
	}
	return pathexpr.Sequence{pathexpr.AtomItem(p)}, nil
}

// evalCreateColor implements createColor(color, expr): it adds the color to
// every node in the value of expr, materializing pending constructed trees
// as new colored trees attached under the document node, and returns the
// colored items.
func (ev *Evaluator) evalCreateColor(env *pathexpr.Env, call *pathexpr.Call, item pathexpr.Item, pos, size int) (pathexpr.Sequence, error) {
	if len(call.Args) != 2 {
		return nil, fmt.Errorf("mcxquery: createColor expects 2 arguments, got %d", len(call.Args))
	}
	color, err := colorArg(call.Args[0])
	if err != nil {
		return nil, err
	}
	v, err := pathexpr.EvalItem(env, call.Args[1], item, pos, size)
	if err != nil {
		return nil, err
	}
	return ev.applyColor(color, v)
}

func (ev *Evaluator) applyColor(color core.Color, v pathexpr.Sequence) (pathexpr.Sequence, error) {
	ev.DB.AddDatabaseColor(color)
	out := make(pathexpr.Sequence, 0, len(v))
	for _, it := range v {
		switch {
		case it.Node != nil:
			if err := ev.colorExisting(it.Node, color, ev.DB.Document()); err != nil {
				return nil, err
			}
			out = append(out, pathexpr.NodeItem(it.Node, color))
		default:
			if p, ok := pendingOf(it); ok {
				n, err := ev.materialize(p, color, ev.DB.Document())
				if err != nil {
					return nil, err
				}
				out = append(out, pathexpr.NodeItem(n, color))
				continue
			}
			out = append(out, it) // atomic values pass through uncolored
		}
	}
	return out, nil
}

// colorExisting gives an existing node the new color and attaches it under
// parent in that color. A node already carrying the color would occur twice
// in the colored tree: the paper's dynamic error.
func (ev *Evaluator) colorExisting(n *core.Node, c core.Color, parent *core.Node) error {
	if n.HasColor(c) {
		return fmt.Errorf("mcxquery: node %v already in colored tree %q: %w", n, c, core.ErrDuplicateInTree)
	}
	if err := ev.DB.AddColor(n, c); err != nil {
		return err
	}
	return ev.DB.Append(parent, n, c)
}

// materialize creates the element tree for a pending constructor with first
// color c, attached under parent.
func (ev *Evaluator) materialize(p *pending, c core.Color, parent *core.Node) (*core.Node, error) {
	el, err := ev.DB.NewElement(p.name, c)
	if err != nil {
		return nil, err
	}
	for _, a := range p.attrs {
		if _, err := ev.DB.SetAttribute(el, a.Name, a.Value); err != nil {
			return nil, err
		}
	}
	var textRun strings.Builder
	flushText := func() error {
		if textRun.Len() == 0 {
			return nil
		}
		_, err := ev.DB.AppendText(el, textRun.String())
		textRun.Reset()
		return err
	}
	for _, it := range p.content {
		switch {
		case it.Node != nil:
			if err := flushText(); err != nil {
				return nil, err
			}
			switch it.Node.Kind() {
			case core.KindAttribute:
				if _, err := ev.DB.SetAttribute(el, it.Node.Name(), it.Node.Value()); err != nil {
					return nil, err
				}
			case core.KindText:
				if _, err := ev.DB.AppendText(el, it.Node.Value()); err != nil {
					return nil, err
				}
			default:
				if err := ev.colorExisting(it.Node, c, el); err != nil {
					return nil, err
				}
			}
		default:
			if sub, ok := pendingOf(it); ok {
				if err := flushText(); err != nil {
					return nil, err
				}
				if _, err := ev.materialize(sub, c, el); err != nil {
					return nil, err
				}
				continue
			}
			textRun.WriteString(itemText(it))
		}
	}
	if err := flushText(); err != nil {
		return nil, err
	}
	if parent != nil {
		if err := ev.DB.Append(parent, el, c); err != nil {
			return nil, err
		}
	}
	return el, nil
}

// evalCreateCopy implements createCopy(expr): node items become deep pending
// copies (fresh identities when later colored); atomic items pass through.
func (ev *Evaluator) evalCreateCopy(env *pathexpr.Env, call *pathexpr.Call, item pathexpr.Item, pos, size int) (pathexpr.Sequence, error) {
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("mcxquery: createCopy expects 1 argument, got %d", len(call.Args))
	}
	v, err := pathexpr.EvalItem(env, call.Args[0], item, pos, size)
	if err != nil {
		return nil, err
	}
	out := make(pathexpr.Sequence, 0, len(v))
	for _, it := range v {
		if it.Node == nil {
			out = append(out, it)
			continue
		}
		c := it.Color
		if c == "" {
			colors := it.Node.Colors()
			if len(colors) == 0 {
				return nil, fmt.Errorf("mcxquery: createCopy of colorless node %v", it.Node)
			}
			c = colors[0]
		}
		p, err := copyToPending(it.Node, c)
		if err != nil {
			return nil, err
		}
		out = append(out, pathexpr.AtomItem(p))
	}
	return out, nil
}

// copyToPending converts a node's subtree in color c to a pending tree.
func copyToPending(n *core.Node, c core.Color) (*pending, error) {
	switch n.Kind() {
	case core.KindElement:
		p := &pending{name: n.Name()}
		for _, a := range n.Attributes() {
			p.attrs = append(p.attrs, CtorAttr{Name: a.Name(), Value: a.Value()})
		}
		for _, ch := range core.Children(n, c) {
			if ch.Kind() == core.KindText {
				p.content = append(p.content, pathexpr.AtomItem(ch.Value()))
				continue
			}
			sub, err := copyToPending(ch, c)
			if err != nil {
				return nil, err
			}
			p.content = append(p.content, pathexpr.AtomItem(sub))
		}
		return p, nil
	case core.KindText:
		return &pending{name: "", content: []pathexpr.Item{pathexpr.AtomItem(n.Value())}}, nil
	default:
		return nil, fmt.Errorf("mcxquery: createCopy of %v unsupported", n)
	}
}

// colorArg resolves createColor's first argument: a bare color name (parsed
// as a single child step) or a string literal.
func colorArg(e pathexpr.Expr) (core.Color, error) {
	switch x := e.(type) {
	case *pathexpr.Literal:
		if s, ok := x.Val.(string); ok && s != "" {
			return core.Color(s), nil
		}
	case *pathexpr.PathExpr:
		if x.Doc == "" && x.Var == "" && !x.FromRoot && len(x.Steps) == 1 {
			s := x.Steps[0]
			if s.Color == "" && s.Axis == pathexpr.AxisChild &&
				s.Test.Kind == pathexpr.TestName && len(s.Preds) == 0 {
				return core.Color(s.Test.Name), nil
			}
		}
	}
	return "", fmt.Errorf("mcxquery: createColor: first argument must be a color literal, got %s", e)
}

// itemText renders an item's text for constructor content.
func itemText(it pathexpr.Item) string { return pathexpr.ItemString(it) }

func atomOf(it pathexpr.Item) any {
	if it.Node == nil {
		return it.Atom
	}
	c := it.Color
	if c == "" {
		colors := it.Node.Colors()
		if len(colors) > 0 {
			c = colors[0]
		}
	}
	v, _ := core.TypedValue(it.Node, c)
	return v
}

// compareAny orders two atomized order-by keys: numbers before strings, nil
// first.
func compareAny(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	af, aok := toF(a)
	bf, bok := toF(b)
	switch {
	case aok && bok:
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case aok:
		return -1
	case bok:
		return 1
	}
	as, bs := fmt.Sprint(a), fmt.Sprint(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func toF(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}
