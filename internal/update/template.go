package update

import (
	"cmp"
	"slices"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
)

// ParseCached returns the update src denotes, exactly as Parse does, through
// plans: an update text whose shape (plan.UpdateShape) the cache keeps a
// template for is lexed once and not parsed — its literal tokens fill the
// template — and one that parses becomes the template of its shape. A text
// that does not parse returns Parse's error and leaves the cache alone.
func ParseCached(src string, plans *plan.Cache) (*Update, error) {
	sh, ok := plan.UpdateShape(src)
	defer sh.Release()
	if !ok {
		return Parse(src) // the lexer's error
	}
	var u *Update
	if plans.Template(sh, func(tmpl any) bool {
		u = tmpl.(*template).fill(sh.Args())
		return u != nil
	}) {
		return u, nil
	}
	u, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plans.PutTemplate(sh, newTemplate(u, sh.Args()))
	return u, nil
}

// A template is a parsed update whose literals are slots: a text of the
// same shape has the same tokens but for its literals, and so the same parse
// but for the values and positions its literals put in the syntax tree.
// Filling rebuilds the nodes on the way to a literal that differs and shares
// every other node with the template, which nothing mutates. An update's
// operations are filled at once; its binding clauses, which a cached plan
// binds from their literal tokens alone, when they are asked for.
type template struct {
	u *Update
	// lits are the literal tokens of the text u was parsed from; fixed
	// marks those with no slot in the tree — a document name, a colour
	// written as a string — which a text must repeat to use the template.
	lits  []pathexpr.Token
	fixed []bool
}

func newTemplate(u *Update, lits []pathexpr.Token) *template {
	t := &template{u: u, lits: slices.Clone(lits)}
	f := filler{from: t.lits, seen: make([]bool, len(lits))}
	f.bindings(u.clauses, u.where)
	fillSlice(u.Ops, f.op)
	t.fixed = f.seen
	for i := range t.fixed {
		t.fixed[i] = !t.fixed[i]
	}
	return t
}

// fill returns the update of a text of the template's shape whose literal
// tokens are args, or nil when the template cannot take them because a
// fixed literal differs.
func (t *template) fill(args []pathexpr.Token) *Update {
	if len(args) != len(t.lits) {
		return nil
	}
	for i, a := range args {
		if t.fixed[i] && a.Text != t.lits[i].Text {
			return nil
		}
	}
	f := filler{from: t.lits, to: args}
	ops, _ := fillSlice(t.u.Ops, f.op)
	return &Update{
		Target: t.u.Target, Ops: ops, from: t,
		bindKey: t.u.bindKey, bindArgs: slices.Clone(args[:len(t.u.bindArgs)]),
	}
}

// bindings fills the template's binding clauses with the literal tokens of
// a text's binding clauses.
func (t *template) bindings(args []pathexpr.Token) ([]mcxquery.Clause, pathexpr.Expr) {
	f := filler{from: t.lits, to: args}
	return f.bindings(t.u.clauses, t.u.where)
}

// filler rebuilds a template's tree for new literal tokens (to), or, with
// to nil, marks which of the template's literals (from) have a slot (seen).
// A literal's slot is the node that records its token's position.
type filler struct {
	from, to []pathexpr.Token
	seen     []bool
}

func (f *filler) bindings(clauses []mcxquery.Clause, where pathexpr.Expr) ([]mcxquery.Clause, pathexpr.Expr) {
	clauses, _ = fillSlice(clauses, f.clause)
	return clauses, f.expr(where)
}

// slot returns the token that fills the slot of the template's literal at
// pos, and whether it differs from the template's.
func (f *filler) slot(pos int) (pathexpr.Token, bool) {
	i, ok := slices.BinarySearchFunc(f.from, pos, func(t pathexpr.Token, pos int) int { return cmp.Compare(t.Pos, pos) })
	if !ok {
		return pathexpr.Token{}, false
	}
	if f.to == nil {
		f.seen[i] = true
		return f.from[i], false
	}
	return f.to[i], f.to[i] != f.from[i]
}

func (f *filler) clause(c mcxquery.Clause) mcxquery.Clause {
	c.Expr = f.expr(c.Expr)
	return c
}

func (f *filler) op(o Op) Op {
	o.Arg, o.Ref = f.expr(o.Arg), f.expr(o.Ref)
	return o
}

func (f *filler) attr(a mcxquery.CtorAttr) mcxquery.CtorAttr {
	if t, moved := f.slot(a.Pos); moved {
		a.Value, a.Pos = t.Text, t.Pos
	}
	return a
}

func (f *filler) orderKey(k mcxquery.OrderKey) mcxquery.OrderKey {
	k.Expr = f.expr(k.Expr)
	return k
}

func (f *filler) step(s *pathexpr.Step) *pathexpr.Step {
	preds, changed := fillSlice(s.Preds, f.expr)
	if !changed {
		return s
	}
	c := *s
	c.Preds = preds
	return &c
}

// expr returns e with its literals filled: e itself when none differs.
func (f *filler) expr(e pathexpr.Expr) pathexpr.Expr {
	switch x := e.(type) {
	case *pathexpr.Literal:
		t, moved := f.slot(x.Pos)
		if !moved {
			return x
		}
		v, _ := pathexpr.LiteralValue(t) // the lexer makes only numbers ParseFloat reads
		return &pathexpr.Literal{Val: v, Pos: t.Pos}
	case *mcxquery.TextCtor:
		if t, moved := f.slot(x.Pos); moved {
			return &mcxquery.TextCtor{Text: t.Text, Pos: t.Pos}
		}
	case *pathexpr.PathExpr:
		if steps, changed := fillSlice(x.Steps, f.step); changed {
			c := *x
			c.Steps = steps
			return &c
		}
	case *pathexpr.Binary:
		if l, r := f.expr(x.L), f.expr(x.R); l != x.L || r != x.R {
			return &pathexpr.Binary{Op: x.Op, L: l, R: r}
		}
	case *pathexpr.Unary:
		if y := f.expr(x.X); y != x.X {
			return &pathexpr.Unary{X: y}
		}
	case *pathexpr.Call:
		if args, changed := fillSlice(x.Args, f.expr); changed {
			return &pathexpr.Call{Name: x.Name, Args: args}
		}
	case *mcxquery.ElementCtor:
		attrs, c1 := fillSlice(x.Attrs, f.attr)
		content, c2 := fillSlice(x.Content, f.expr)
		if c1 || c2 {
			return &mcxquery.ElementCtor{Name: x.Name, Attrs: attrs, Content: content}
		}
	case *mcxquery.FLWOR:
		clauses, c1 := fillSlice(x.Clauses, f.clause)
		where := f.expr(x.Where)
		order, c2 := fillSlice(x.OrderBy, f.orderKey)
		ret := f.expr(x.Return)
		if c1 || c2 || where != x.Where || ret != x.Return {
			return &mcxquery.FLWOR{Clauses: clauses, Where: where, OrderBy: order, Return: ret}
		}
	case *mcxquery.IfExpr:
		if c, t, el := f.expr(x.Cond), f.expr(x.Then), f.expr(x.Else); c != x.Cond || t != x.Then || el != x.Else {
			return &mcxquery.IfExpr{Cond: c, Then: t, Else: el}
		}
	case *mcxquery.SeqExpr:
		if items, changed := fillSlice(x.Items, f.expr); changed {
			return &mcxquery.SeqExpr{Items: items}
		}
	}
	// Unchanged, or nothing to fill: a variable, the context item, a nil
	// expression. Every node type that holds a literal is listed, so every
	// literal position is renewed: a filled tree is the one Parse gives.
	return e
}

// fillSlice returns xs with fill applied to each element, and whether any
// changed: xs itself when none did, so that an unchanged tree is shared.
func fillSlice[T comparable](xs []T, fill func(T) T) ([]T, bool) {
	var out []T
	for i, x := range xs {
		if y := fill(x); out != nil {
			out[i] = y
		} else if y != x {
			out = slices.Clone(xs)
			out[i] = y
		}
	}
	if out == nil {
		return xs, false
	}
	return out, true
}
