package plan

import (
	"fmt"
	"strconv"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
)

// analyze turns a parsed query into the logical IR. Supported shapes are a
// bare (possibly predicated) colored path expression and a single FLWOR with
// for-clauses over path expressions, a conjunctive where clause, and a
// return clause that yields a variable, a relative path from one, or such a
// value wrapped in element constructors / createColor (the wrapping is
// read-only irrelevant to which nodes qualify, so it is stripped). args are
// the text's literal tokens: each predicate value taken from one records its
// ordinal.
func analyze(e pathexpr.Expr, defaultColor core.Color, args []pathexpr.Token) (*Logical, error) {
	a := newAnalyzer(defaultColor, args)
	switch x := e.(type) {
	case *mcxquery.FLWOR:
		if err := a.flwor(x); err != nil {
			return nil, err
		}
	case *pathexpr.PathExpr:
		if err := a.barePath(x); err != nil {
			return nil, err
		}
	default:
		return nil, unsupportedf("%T as query root", e)
	}
	return a.lg, nil
}

func newAnalyzer(defaultColor core.Color, args []pathexpr.Token) *analyzer {
	return &analyzer{
		def:  defaultColor,
		args: args,
		lg:   &Logical{},
		vars: map[string]*VarPlan{},
		end:  map[string]core.Color{},
	}
}

type analyzer struct {
	def  core.Color
	lg   *Logical
	vars map[string]*VarPlan
	// end tracks each variable's binding color (the color of its last step).
	end map[string]core.Color
	// args are the text's literal tokens, in order (see argOf).
	args []pathexpr.Token
}

// predOf returns the engine predicate comparing with a literal, recording the
// literal's ordinal among the text's literals so that a plan cached for the
// text's shape can take the value of another text's literal there.
func (a *analyzer) predOf(kind string, l *pathexpr.Literal) engine.Pred {
	val, numeric := literalValue(l.Val)
	if kind == "contains" {
		numeric = false
	}
	p := engine.Pred{Kind: kind, Value: val, Numeric: numeric}
	for i, t := range a.args {
		if t.Pos == l.Pos {
			p.Arg = i + 1
		}
	}
	return p
}

// barePath analyzes a top-level path expression as an anonymous single-
// variable query returning the selected nodes.
func (a *analyzer) barePath(p *pathexpr.PathExpr) error {
	if p.Var != "" {
		return unsupportedf("top-level path rooted at unbound $%s", p.Var)
	}
	if p.Doc == "" && !p.FromRoot {
		return unsupportedf("relative top-level path")
	}
	nav, attr, err := splitAttr(p.Steps)
	if err != nil {
		return err
	}
	steps, endC, err := a.resolveSteps(nav, a.def)
	if err != nil {
		return err
	}
	if len(steps) == 0 {
		return unsupportedf("path with no element steps")
	}
	vp := &VarPlan{Name: "_", Steps: steps}
	a.lg.Vars = []*VarPlan{vp}
	a.vars[vp.Name] = vp
	a.end[vp.Name] = endC
	a.lg.Out = Output{Var: vp.Name, Attr: attr}
	return nil
}

func (a *analyzer) flwor(f *mcxquery.FLWOR) error {
	if len(f.OrderBy) > 0 {
		return unsupportedf("order by clause")
	}
	if err := a.bindings(f.Clauses, f.Where); err != nil {
		return err
	}
	return a.ret(f.Return)
}

// bindings analyzes for clauses into VarPlans and the where clause into
// pushed-down predicates and joins: the binding half of a FLWOR, which is
// also all there is to an update statement's FOR ... WHERE prefix (paper
// Section 4.3).
func (a *analyzer) bindings(clauses []mcxquery.Clause, where pathexpr.Expr) error {
	for _, cl := range clauses {
		if cl.Let {
			return unsupportedf("let clause")
		}
		pe, ok := cl.Expr.(*pathexpr.PathExpr)
		if !ok {
			return unsupportedf("for $%s in %T", cl.Var, cl.Expr)
		}
		var base string
		start := a.def
		switch {
		case pe.Doc != "" || pe.FromRoot:
		case pe.Var != "":
			if a.vars[pe.Var] == nil {
				return unsupportedf("for $%s in $%s: unbound base variable", cl.Var, pe.Var)
			}
			base = pe.Var
			start = a.end[base]
		default:
			return unsupportedf("for $%s in a relative path", cl.Var)
		}
		nav, attr, err := splitAttr(pe.Steps)
		if err != nil {
			return err
		}
		if attr != "" {
			return unsupportedf("for $%s binds an attribute", cl.Var)
		}
		steps, endC, err := a.resolveSteps(nav, start)
		if err != nil {
			return err
		}
		if len(steps) == 0 {
			return unsupportedf("for $%s binds no element step", cl.Var)
		}
		if a.vars[cl.Var] != nil {
			return unsupportedf("for $%s shadows an earlier binding", cl.Var)
		}
		vp := &VarPlan{Name: cl.Var, Base: base, Steps: steps}
		a.lg.Vars = append(a.lg.Vars, vp)
		a.vars[cl.Var] = vp
		a.end[cl.Var] = endC
	}
	if len(a.lg.Vars) == 0 {
		return unsupportedf("FLWOR without for clauses")
	}
	if where != nil {
		return a.where(where)
	}
	return nil
}

// resolveSteps resolves colors and fuses the parser's expansion of "//"
// (descendant-or-self::node() followed by a child step) into one descendant
// step, returning the resolved chain and its final color.
func (a *analyzer) resolveSteps(steps []*pathexpr.Step, ctx core.Color) ([]LStep, core.Color, error) {
	var out []LStep
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		axis := s.Axis
		if axis == pathexpr.AxisDescendantOrSelf && s.Test.Kind == pathexpr.TestNode && len(s.Preds) == 0 {
			if i+1 >= len(steps) || steps[i+1].Axis != pathexpr.AxisChild {
				return nil, "", unsupportedf("descendant-or-self step not part of a // abbreviation")
			}
			i++
			s = steps[i]
			axis = pathexpr.AxisDescendant
		}
		if s.Test.Kind != pathexpr.TestName {
			return nil, "", unsupportedf("node test %s", s.Test)
		}
		switch axis {
		case pathexpr.AxisChild, pathexpr.AxisDescendant, pathexpr.AxisParent, pathexpr.AxisAncestor:
		default:
			return nil, "", unsupportedf("axis %s", axis)
		}
		c := s.Color
		if c == "" {
			c = ctx
		}
		if c == "" {
			return nil, "", unsupportedf("step %s has no color and no context color", s)
		}
		ls := LStep{Color: c, Axis: axis, Tag: s.Test.Name}
		for _, p := range s.Preds {
			preds, err := a.pred(p, c)
			if err != nil {
				return nil, "", err
			}
			ls.Preds = append(ls.Preds, preds...)
		}
		out = append(out, ls)
		ctx = c
	}
	return out, ctx, nil
}

// splitAttr splits a trailing attribute step off a raw step list. Attribute
// axes anywhere else are not navigable.
func splitAttr(steps []*pathexpr.Step) ([]*pathexpr.Step, string, error) {
	for i, s := range steps {
		if s.Axis != pathexpr.AxisAttribute {
			continue
		}
		if i != len(steps)-1 || s.Test.Kind != pathexpr.TestName || len(s.Preds) > 0 {
			return nil, "", unsupportedf("non-terminal attribute step")
		}
		return steps[:i], s.Test.Name, nil
	}
	return steps, "", nil
}

// pred analyzes one step predicate into pushed-down LPreds. Conjunctions
// split; each conjunct must compare a relative path (or the context item)
// against a literal, or be a contains() call.
func (a *analyzer) pred(e pathexpr.Expr, ctx core.Color) ([]LPred, error) {
	switch x := e.(type) {
	case *pathexpr.Binary:
		if x.Op == pathexpr.OpAnd {
			l, err := a.pred(x.L, ctx)
			if err != nil {
				return nil, err
			}
			r, err := a.pred(x.R, ctx)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
		kind, ok := cmpKind(x.Op)
		if !ok {
			return nil, unsupportedf("predicate operator %s", x)
		}
		side, lit, flipped, err := literalSide(x)
		if err != nil {
			return nil, err
		}
		if flipped {
			kind = flipCmp(kind)
		}
		rel, attr, err := a.relPath(side, ctx)
		if err != nil {
			return nil, err
		}
		return []LPred{{Path: rel, Attr: attr, Pred: a.predOf(kind, lit)}}, nil
	case *pathexpr.Call:
		if x.Name == "contains" && len(x.Args) == 2 {
			lit, ok := x.Args[1].(*pathexpr.Literal)
			if !ok {
				return nil, unsupportedf("contains with non-literal needle")
			}
			rel, attr, err := a.relPath(x.Args[0], ctx)
			if err != nil {
				return nil, err
			}
			return []LPred{{Path: rel, Attr: attr, Pred: a.predOf("contains", lit)}}, nil
		}
		return nil, unsupportedf("function %s() in predicate", x.Name)
	default:
		return nil, unsupportedf("%T predicate", e)
	}
}

// literalSide splits a comparison into its path side and literal side,
// reporting whether the operands were flipped.
func literalSide(b *pathexpr.Binary) (pathexpr.Expr, *pathexpr.Literal, bool, error) {
	if lit, ok := b.R.(*pathexpr.Literal); ok {
		return b.L, lit, false, nil
	}
	if lit, ok := b.L.(*pathexpr.Literal); ok {
		return b.R, lit, true, nil
	}
	return nil, nil, false, unsupportedf("comparison %s has no literal side", b)
}

// relPath analyzes a relative path used inside a predicate: the context item
// itself, or element steps with an optional trailing attribute.
func (a *analyzer) relPath(e pathexpr.Expr, ctx core.Color) ([]LStep, string, error) {
	switch x := e.(type) {
	case *pathexpr.ContextItem:
		return nil, "", nil
	case *pathexpr.PathExpr:
		if x.Doc != "" || x.FromRoot || x.Var != "" {
			return nil, "", unsupportedf("non-relative path %s in predicate", x)
		}
		nav, attr, err := splitAttr(x.Steps)
		if err != nil {
			return nil, "", err
		}
		steps, _, err := a.resolveSteps(nav, ctx)
		if err != nil {
			return nil, "", err
		}
		for _, st := range steps {
			if st.Color != steps[0].Color {
				return nil, "", unsupportedf("color change inside predicate path %s", x)
			}
			if st.Axis != pathexpr.AxisChild && st.Axis != pathexpr.AxisDescendant {
				return nil, "", unsupportedf("reverse axis inside predicate path %s", x)
			}
		}
		return steps, attr, nil
	default:
		return nil, "", unsupportedf("%T as predicate path", e)
	}
}

// where splits the where clause into conjuncts: variable joins and
// single-variable predicates.
func (a *analyzer) where(e pathexpr.Expr) error {
	if b, ok := e.(*pathexpr.Binary); ok && b.Op == pathexpr.OpAnd {
		if err := a.where(b.L); err != nil {
			return err
		}
		return a.where(b.R)
	}
	if c, ok := e.(*pathexpr.Call); ok {
		// where contains($v/path, "lit")
		if c.Name != "contains" || len(c.Args) != 2 {
			return unsupportedf("function %s() in where clause", c.Name)
		}
		p, ok := varPath(c.Args[0])
		if !ok {
			return unsupportedf("contains() over a non-variable path in where clause")
		}
		lit, ok := c.Args[1].(*pathexpr.Literal)
		if !ok {
			return unsupportedf("contains with non-literal needle")
		}
		rel, attr, err := a.relVarPath(p)
		if err != nil {
			return err
		}
		return a.pushPred(p.Var, LPred{Path: rel, Attr: attr, Pred: a.predOf("contains", lit)})
	}
	b, ok := e.(*pathexpr.Binary)
	if !ok {
		return unsupportedf("%T in where clause", e)
	}
	kind, ok := cmpKind(b.Op)
	if !ok {
		return unsupportedf("operator in where clause: %s", b)
	}
	// $a = $b: element identity.
	if lv, okL := b.L.(*pathexpr.VarRef); okL {
		if rv, okR := b.R.(*pathexpr.VarRef); okR {
			if kind != "eq" {
				return unsupportedf("non-equality comparison of variables")
			}
			if err := a.bound(lv.Name, rv.Name); err != nil {
				return err
			}
			a.lg.Joins = append(a.lg.Joins, LJoin{Kind: JoinID, LeftVar: lv.Name, RightVar: rv.Name, Op: "eq"})
			return nil
		}
	}
	lp, lOK := varPath(b.L)
	rp, rOK := varPath(b.R)
	switch {
	case lOK && rOK:
		return a.varJoin(kind, lp, rp)
	case lOK || rOK:
		// $v/path CMP literal: push down onto the variable's last step.
		side, lit, flipped, err := literalSide(b)
		if err != nil {
			return err
		}
		if flipped {
			kind = flipCmp(kind)
		}
		p := side.(*pathexpr.PathExpr)
		rel, attr, err := a.relVarPath(p)
		if err != nil {
			return err
		}
		return a.pushPred(p.Var, LPred{Path: rel, Attr: attr, Pred: a.predOf(kind, lit)})
	default:
		return unsupportedf("where conjunct %s", b)
	}
}

// varJoin analyzes "$a/pathA CMP $b/pathB".
func (a *analyzer) varJoin(kind string, lp, rp *pathexpr.PathExpr) error {
	if err := a.bound(lp.Var, rp.Var); err != nil {
		return err
	}
	lSteps, lAttr, err := a.relVarPath(lp)
	if err != nil {
		return err
	}
	rSteps, rAttr, err := a.relVarPath(rp)
	if err != nil {
		return err
	}
	if lAttr != "" && rAttr != "" && len(lSteps) == 0 && len(rSteps) == 0 && kind == "eq" {
		a.lg.Joins = append(a.lg.Joins, LJoin{
			Kind: JoinAttr, LeftVar: lp.Var, RightVar: rp.Var,
			LeftAttr: lAttr, RightAttr: rAttr, Op: "eq",
		})
		return nil
	}
	if lAttr != "" || rAttr != "" {
		return unsupportedf("attribute in non-equality variable join")
	}
	a.lg.Joins = append(a.lg.Joins, LJoin{
		Kind: JoinPath, LeftVar: lp.Var, RightVar: rp.Var,
		LeftPath: lSteps, RightPath: rSteps, Op: kind,
		// Content-to-content comparisons atomize numerically (the workload
		// compares totals, quantities, costs).
		Numeric: true,
	})
	return nil
}

// relVarPath resolves the steps of a $v/... path relative to $v's binding
// color.
func (a *analyzer) relVarPath(p *pathexpr.PathExpr) ([]LStep, string, error) {
	nav, attr, err := splitAttr(p.Steps)
	if err != nil {
		return nil, "", err
	}
	steps, _, err := a.resolveSteps(nav, a.end[p.Var])
	if err != nil {
		return nil, "", err
	}
	return steps, attr, nil
}

// pushPred appends a where-clause predicate onto a variable's final step.
func (a *analyzer) pushPred(v string, p LPred) error {
	vp := a.vars[v]
	if vp == nil {
		return unsupportedf("unbound variable $%s in where clause", v)
	}
	if len(vp.Steps) == 0 {
		return unsupportedf("predicate on stepless variable $%s", v)
	}
	vp.Steps[len(vp.Steps)-1].Preds = append(vp.Steps[len(vp.Steps)-1].Preds, p)
	return nil
}

func (a *analyzer) bound(names ...string) error {
	for _, n := range names {
		if a.vars[n] == nil {
			return unsupportedf("unbound variable $%s in where clause", n)
		}
	}
	return nil
}

// varPath matches a $v/steps path over a bound variable.
func varPath(e pathexpr.Expr) (*pathexpr.PathExpr, bool) {
	p, ok := e.(*pathexpr.PathExpr)
	return p, ok && p != nil && p.Var != ""
}

// ret analyzes the return clause after stripping read-only result wrapping
// (createColor calls and element constructors around a single enclosed
// expression): which nodes qualify is unaffected by the wrapping.
func (a *analyzer) ret(e pathexpr.Expr) error {
	e = unwrapCtor(e)
	switch x := e.(type) {
	case *pathexpr.VarRef:
		if a.vars[x.Name] == nil {
			return unsupportedf("return of unbound $%s", x.Name)
		}
		a.lg.Out = Output{Var: x.Name}
		return nil
	case *pathexpr.PathExpr:
		if x.Var == "" || a.vars[x.Var] == nil {
			return unsupportedf("return path %s not rooted at a bound variable", x)
		}
		nav, attr, err := splitAttr(x.Steps)
		if err != nil {
			return err
		}
		steps, _, err := a.resolveSteps(nav, a.end[x.Var])
		if err != nil {
			return err
		}
		a.lg.Out = Output{Var: x.Var, Attr: attr, Path: steps}
		return nil
	default:
		return unsupportedf("%T in return clause", e)
	}
}

// unwrapCtor strips createColor(c, X) and element constructors whose content
// is a single enclosed expression (plus whitespace text), recursively.
func unwrapCtor(e pathexpr.Expr) pathexpr.Expr {
	for {
		switch x := e.(type) {
		case *pathexpr.Call:
			if (x.Name == "createColor" && len(x.Args) == 2) || (x.Name == "createCopy" && len(x.Args) == 1) {
				e = x.Args[len(x.Args)-1]
				continue
			}
			return e
		case *mcxquery.ElementCtor:
			var inner pathexpr.Expr
			n := 0
			for _, c := range x.Content {
				if t, ok := c.(*mcxquery.TextCtor); ok {
					if strings.TrimSpace(t.Text) == "" {
						continue
					}
					return e
				}
				inner = c
				n++
			}
			if n != 1 {
				return e
			}
			e = inner
		case *mcxquery.SeqExpr:
			if len(x.Items) != 1 {
				return e
			}
			e = x.Items[0]
		default:
			return e
		}
	}
}

// cmpKind maps comparison operators to engine.Pred kinds.
func cmpKind(op pathexpr.BinaryOp) (string, bool) {
	switch op {
	case pathexpr.OpEq:
		return "eq", true
	case pathexpr.OpNe:
		return "ne", true
	case pathexpr.OpLt:
		return "lt", true
	case pathexpr.OpLe:
		return "le", true
	case pathexpr.OpGt:
		return "gt", true
	case pathexpr.OpGe:
		return "ge", true
	default:
		return "", false
	}
}

func flipCmp(kind string) string {
	switch kind {
	case "lt":
		return "gt"
	case "le":
		return "ge"
	case "gt":
		return "lt"
	case "ge":
		return "le"
	default:
		return kind
	}
}

// literalValue renders a literal's value as the string the engine compares
// against and reports whether it atomizes to a number (selecting numeric
// comparison, matching the evaluator's atomization semantics).
func literalValue(val any) (string, bool) {
	switch v := val.(type) {
	case string:
		return stringValue(v)
	case int:
		return strconv.Itoa(v), true
	case int64:
		return strconv.FormatInt(v, 10), true
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), true
	default:
		return fmt.Sprint(v), false
	}
}

// stringValue is literalValue for a string literal.
func stringValue(v string) (string, bool) {
	switch core.Atomize(v).(type) {
	case int64, float64:
		return v, true
	}
	return v, false
}

// argValue is literalValue for a literal token; constructor text is a
// string.
func argValue(t pathexpr.Token) (string, bool) {
	if t.Kind == pathexpr.TokString || t.Kind == pathexpr.TokRawText {
		return stringValue(t.Text)
	}
	v, err := pathexpr.LiteralValue(t)
	if err != nil {
		return t.Text, false
	}
	return literalValue(v)
}
