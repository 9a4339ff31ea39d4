package pathexpr

import (
	"errors"
	"fmt"

	"colorfulxml/internal/core"
)

func coreColor(s string) core.Color { return core.Color(s) }

// Item is one item of an MCXQuery sequence: either a node together with the
// color under which it was selected (the color of the final location step
// that produced it), or an atomic value (string, int64, float64 or bool).
type Item struct {
	Node  *core.Node
	Color core.Color
	Atom  any
}

// NodeItem builds a node item.
func NodeItem(n *core.Node, c core.Color) Item { return Item{Node: n, Color: c} }

// AtomItem builds an atomic item.
func AtomItem(v any) Item { return Item{Atom: v} }

// IsNode reports whether the item is a node item.
func (it Item) IsNode() bool { return it.Node != nil }

// Sequence is an ordered sequence of items, the universal value of MCXQuery
// evaluation.
type Sequence []Item

// Nodes extracts the node pointers of all node items.
func (s Sequence) Nodes() []*core.Node {
	out := make([]*core.Node, 0, len(s))
	for _, it := range s {
		if it.Node != nil {
			out = append(out, it.Node)
		}
	}
	return out
}

// Env is the static evaluation environment: the database, variable bindings,
// and an optional default color used when a path's first step omits its
// color and no context color is available.
type Env struct {
	DB           *core.Database
	Vars         map[string]Sequence
	DefaultColor core.Color
	// Ext, when set, evaluates extension expressions (FLWOR, constructors)
	// and extension functions (createColor, createCopy) that this package
	// does not know. It receives the dynamic context item and positional
	// context and reports ok=false to fall through to the default error.
	Ext func(env *Env, e Expr, item Item, pos, size int) (Sequence, bool, error)
}

// Bind returns a copy of the environment with an additional variable bound.
// The receiver is unchanged, so environments can be shared across FLWOR
// iterations.
func (e *Env) Bind(name string, val Sequence) *Env {
	vars := make(map[string]Sequence, len(e.Vars)+1)
	for k, v := range e.Vars {
		vars[k] = v
	}
	vars[name] = val
	return &Env{DB: e.DB, Vars: vars, DefaultColor: e.DefaultColor, Ext: e.Ext}
}

// Evaluation errors.
var (
	// ErrNoColor: a location step has no color and none can be inherited
	// from its context (Section 4.1 requires color disambiguation).
	ErrNoColor = errors.New("location step has no color and no context color")
	// ErrUnboundVar: reference to a variable with no binding.
	ErrUnboundVar = errors.New("unbound variable")
	// ErrType: operand has an unsupported type for the operation.
	ErrType = errors.New("type error")
	// ErrUnknownFunc: call to an undefined function.
	ErrUnknownFunc = errors.New("unknown function")
)

// evalCtx is the dynamic context of one evaluation: the context item, its
// color, and the positional context for predicates.
type evalCtx struct {
	env  *Env
	item Item
	pos  int // 1-based position(), 0 when absent
	size int // last(), 0 when absent
}

// Eval evaluates an expression with no context item (suitable for absolute
// paths and variable-rooted paths).
func Eval(env *Env, e Expr) (Sequence, error) {
	return evalExpr(evalCtx{env: env}, e)
}

// EvalWith evaluates an expression with the given context node and color.
func EvalWith(env *Env, e Expr, node *core.Node, color core.Color) (Sequence, error) {
	return evalExpr(evalCtx{env: env, item: NodeItem(node, color)}, e)
}

// EvalItem evaluates an expression with an explicit dynamic context (item
// plus positional context). Extension evaluators use it to resume evaluation
// of sub-expressions with the context they received.
func EvalItem(env *Env, e Expr, item Item, pos, size int) (Sequence, error) {
	return evalExpr(evalCtx{env: env, item: item, pos: pos, size: size}, e)
}

func evalExpr(ctx evalCtx, e Expr) (Sequence, error) {
	switch x := e.(type) {
	case *Literal:
		return Sequence{AtomItem(x.Val)}, nil
	case *VarRef:
		v, ok := ctx.env.Vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("pathexpr: $%s: %w", x.Name, ErrUnboundVar)
		}
		return v, nil
	case *ContextItem:
		if ctx.item.Node == nil && ctx.item.Atom == nil {
			return nil, fmt.Errorf("pathexpr: '.' with no context item")
		}
		return Sequence{ctx.item}, nil
	case *Unary:
		v, err := evalExpr(ctx, x.X)
		if err != nil {
			return nil, err
		}
		f, err := toNumber(v)
		if err != nil {
			return nil, err
		}
		return Sequence{AtomItem(-f)}, nil
	case *Binary:
		return evalBinary(ctx, x)
	case *Call:
		return evalCall(ctx, x)
	case *PathExpr:
		return evalPath(ctx, x)
	default:
		if ctx.env.Ext != nil {
			seq, ok, err := ctx.env.Ext(ctx.env, e, ctx.item, ctx.pos, ctx.size)
			if ok || err != nil {
				return seq, err
			}
		}
		return nil, fmt.Errorf("pathexpr: cannot evaluate %T", e)
	}
}

// evalPath evaluates a colored path expression. The result is deduplicated
// and sorted by local order in the color of the final step (Section 4.1).
func evalPath(ctx evalCtx, p *PathExpr) (Sequence, error) {
	db := ctx.env.DB
	var cur Sequence
	inherited := ctx.env.DefaultColor
	switch {
	case p.Doc != "" || p.FromRoot:
		cur = Sequence{NodeItem(db.Document(), "")}
	case p.Var != "":
		v, ok := ctx.env.Vars[p.Var]
		if !ok {
			return nil, fmt.Errorf("pathexpr: $%s: %w", p.Var, ErrUnboundVar)
		}
		cur = v
	default:
		if ctx.item.Node == nil {
			return nil, fmt.Errorf("pathexpr: relative path with no context node")
		}
		cur = Sequence{ctx.item}
		if ctx.item.Color != "" {
			inherited = ctx.item.Color
		}
	}
	if len(p.Steps) == 0 {
		return cur, nil
	}
	for _, step := range p.Steps {
		color := step.Color
		if color == "" {
			// Inherit: prefer the color items were selected under.
			if len(cur) > 0 && cur[0].Color != "" {
				color = cur[0].Color
			} else {
				color = inherited
			}
		}
		if color == "" {
			return nil, fmt.Errorf("pathexpr: step %s: %w", step, ErrNoColor)
		}
		if !db.HasColor(color) {
			return nil, fmt.Errorf("pathexpr: step %s: color %q: %w", step, color, core.ErrUnknownColor)
		}
		inherited = color
		var next []*core.Node
		seen := map[core.NodeID]bool{}
		for _, it := range cur {
			if it.Node == nil {
				return nil, fmt.Errorf("pathexpr: step %s applied to atomic value: %w", step, ErrType)
			}
			cands := axisNodes(it.Node, step.Axis, color)
			cands = filterTest(cands, step.Test, step.Axis)
			for _, pred := range step.Preds {
				filtered, err := applyPredicate(ctx.env, cands, pred, color)
				if err != nil {
					return nil, err
				}
				cands = filtered
			}
			for _, n := range cands {
				if !seen[n.ID()] {
					seen[n.ID()] = true
					next = append(next, n)
				}
			}
		}
		db.SortLocal(next, color)
		cur = make(Sequence, len(next))
		for i, n := range next {
			cur[i] = NodeItem(n, color)
		}
	}
	return cur, nil
}

// axisNodes returns the nodes reachable from n along the axis within the
// colored tree c, in axis order (reverse axes are nearest-first, matching
// XPath proximity positions).
func axisNodes(n *core.Node, a Axis, c core.Color) []*core.Node {
	switch a {
	case AxisChild:
		return core.Children(n, c)
	case AxisDescendant:
		return core.Descendants(n, c)
	case AxisDescendantOrSelf:
		if !n.HasColor(c) {
			return nil
		}
		return append([]*core.Node{n}, core.Descendants(n, c)...)
	case AxisSelf:
		if !n.HasColor(c) {
			return nil
		}
		return []*core.Node{n}
	case AxisParent:
		if p := core.Parent(n, c); p != nil {
			return []*core.Node{p}
		}
		return nil
	case AxisAncestor:
		var out []*core.Node
		for p := core.Parent(n, c); p != nil; p = core.Parent(p, c) {
			out = append(out, p)
		}
		return out
	case AxisAncestorOrSelf:
		if !n.HasColor(c) {
			return nil
		}
		out := []*core.Node{n}
		for p := core.Parent(n, c); p != nil; p = core.Parent(p, c) {
			out = append(out, p)
		}
		return out
	case AxisAttribute:
		if !n.HasColor(c) {
			return nil
		}
		return n.Attributes()
	case AxisFollowingSibling:
		return core.FollowingSiblings(n, c)
	case AxisPrecedingSibling:
		return core.PrecedingSiblings(n, c)
	default:
		return nil
	}
}

// filterTest applies the node test. On the attribute axis, name tests match
// attribute names; elsewhere they match element names.
func filterTest(nodes []*core.Node, t NodeTest, a Axis) []*core.Node {
	out := nodes[:0:0]
	for _, n := range nodes {
		ok := false
		switch t.Kind {
		case TestName:
			if a == AxisAttribute {
				ok = n.Kind() == core.KindAttribute && n.Name() == t.Name
			} else {
				ok = n.Kind() == core.KindElement && n.Name() == t.Name
			}
		case TestStar:
			if a == AxisAttribute {
				ok = n.Kind() == core.KindAttribute
			} else {
				ok = n.Kind() == core.KindElement
			}
		case TestNode:
			ok = true
		case TestText:
			ok = n.Kind() == core.KindText
		case TestComment:
			ok = n.Kind() == core.KindComment
		case TestPI:
			ok = n.Kind() == core.KindPI && (t.Name == "" || n.Name() == t.Name)
		}
		if ok {
			out = append(out, n)
		}
	}
	return out
}

// applyPredicate filters candidates by a predicate, providing XPath
// positional semantics: a numeric predicate value selects by position.
func applyPredicate(env *Env, cands []*core.Node, pred Expr, c core.Color) ([]*core.Node, error) {
	out := cands[:0:0]
	size := len(cands)
	for i, n := range cands {
		pctx := evalCtx{env: env, item: NodeItem(n, c), pos: i + 1, size: size}
		v, err := evalExpr(pctx, pred)
		if err != nil {
			return nil, err
		}
		keep, err := predicateTruth(v, i+1)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

// predicateTruth converts a predicate value: a single numeric item selects by
// position; anything else uses the effective boolean value.
func predicateTruth(v Sequence, pos int) (bool, error) {
	if len(v) == 1 && v[0].Node == nil {
		switch x := v[0].Atom.(type) {
		case int64:
			return int(x) == pos, nil
		case float64:
			return int(x) == pos && float64(int(x)) == x, nil
		}
	}
	return EffectiveBool(v)
}

// EffectiveBool computes the XPath effective boolean value of a sequence.
func EffectiveBool(v Sequence) (bool, error) {
	if len(v) == 0 {
		return false, nil
	}
	if v[0].Node != nil {
		return true, nil
	}
	if len(v) > 1 {
		return true, nil
	}
	switch x := v[0].Atom.(type) {
	case bool:
		return x, nil
	case string:
		return x != "", nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	default:
		return false, fmt.Errorf("pathexpr: effective boolean value of %T: %w", x, ErrType)
	}
}

func evalBinary(ctx evalCtx, b *Binary) (Sequence, error) {
	switch b.Op {
	case OpOr, OpAnd:
		lv, err := evalExpr(ctx, b.L)
		if err != nil {
			return nil, err
		}
		lb, err := EffectiveBool(lv)
		if err != nil {
			return nil, err
		}
		if b.Op == OpOr && lb {
			return Sequence{AtomItem(true)}, nil
		}
		if b.Op == OpAnd && !lb {
			return Sequence{AtomItem(false)}, nil
		}
		rv, err := evalExpr(ctx, b.R)
		if err != nil {
			return nil, err
		}
		rb, err := EffectiveBool(rv)
		if err != nil {
			return nil, err
		}
		return Sequence{AtomItem(rb)}, nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		lv, err := evalExpr(ctx, b.L)
		if err != nil {
			return nil, err
		}
		rv, err := evalExpr(ctx, b.R)
		if err != nil {
			return nil, err
		}
		res, err := Compare(b.Op, lv, rv)
		if err != nil {
			return nil, err
		}
		return Sequence{AtomItem(res)}, nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		lv, err := evalExpr(ctx, b.L)
		if err != nil {
			return nil, err
		}
		rv, err := evalExpr(ctx, b.R)
		if err != nil {
			return nil, err
		}
		lf, err := toNumber(lv)
		if err != nil {
			return nil, err
		}
		rf, err := toNumber(rv)
		if err != nil {
			return nil, err
		}
		var out float64
		switch b.Op {
		case OpAdd:
			out = lf + rf
		case OpSub:
			out = lf - rf
		case OpMul:
			out = lf * rf
		case OpDiv:
			if rf == 0 {
				return nil, fmt.Errorf("pathexpr: division by zero")
			}
			out = lf / rf
		case OpMod:
			if rf == 0 {
				return nil, fmt.Errorf("pathexpr: modulo by zero")
			}
			out = float64(int64(lf) % int64(rf))
		}
		if out == float64(int64(out)) {
			return Sequence{AtomItem(int64(out))}, nil
		}
		return Sequence{AtomItem(out)}, nil
	}
	return nil, fmt.Errorf("pathexpr: unknown operator")
}

// Compare implements existential (general) comparison between sequences.
// When both operands are ELEMENT (or document) node items the comparison is
// by node identity for '=' and '!=' — the MCT idiom "[. = $m]" tests whether
// two path results reach the same node (paper Fig. 3, query Q3). Value nodes
// (attributes, text, comments) and mixed node/atomic operands atomize and
// compare by value, per XPath ("$l/@orderIdRef = $o/@id" is a value join).
func Compare(op BinaryOp, l, r Sequence) (bool, error) {
	for _, li := range l {
		for _, ri := range r {
			ok, err := compareItems(op, li, ri)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

func isStructuralNode(n *core.Node) bool {
	return n != nil && (n.Kind() == core.KindElement || n.Kind() == core.KindDocument)
}

func compareItems(op BinaryOp, l, r Item) (bool, error) {
	if isStructuralNode(l.Node) && isStructuralNode(r.Node) && (op == OpEq || op == OpNe) {
		same := l.Node.ID() == r.Node.ID()
		if op == OpEq {
			return same, nil
		}
		return !same, nil
	}
	la, err := atomizeItem(l)
	if err != nil {
		return false, err
	}
	ra, err := atomizeItem(r)
	if err != nil {
		return false, err
	}
	return compareAtoms(op, la, ra)
}

// atomizeItem converts an item to an atomic value; node items atomize to
// their typed value in the item's color.
func atomizeItem(it Item) (any, error) {
	if it.Node == nil {
		return it.Atom, nil
	}
	c := it.Color
	if c == "" {
		colors := it.Node.Colors()
		if len(colors) == 0 {
			return "", nil
		}
		c = colors[0]
	}
	v, ok := core.TypedValue(it.Node, c)
	if !ok {
		// Item color may not apply (e.g. document node); fall back.
		colors := it.Node.Colors()
		if len(colors) == 0 {
			return "", nil
		}
		v, _ = core.TypedValue(it.Node, colors[0])
	}
	return v, nil
}

func compareAtoms(op BinaryOp, l, r any) (bool, error) {
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if lok && rok {
		switch op {
		case OpEq:
			return lf == rf, nil
		case OpNe:
			return lf != rf, nil
		case OpLt:
			return lf < rf, nil
		case OpLe:
			return lf <= rf, nil
		case OpGt:
			return lf > rf, nil
		case OpGe:
			return lf >= rf, nil
		}
	}
	ls := asString(l)
	rs := asString(r)
	switch op {
	case OpEq:
		return ls == rs, nil
	case OpNe:
		return ls != rs, nil
	case OpLt:
		return ls < rs, nil
	case OpLe:
		return ls <= rs, nil
	case OpGt:
		return ls > rs, nil
	case OpGe:
		return ls >= rs, nil
	}
	return false, fmt.Errorf("pathexpr: bad comparison")
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		return core.Numeric(x)
	}
	return 0, false
}

func asString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

// toNumber converts a singleton sequence to a float64.
func toNumber(v Sequence) (float64, error) {
	if len(v) != 1 {
		return 0, fmt.Errorf("pathexpr: expected a single numeric value, got %d items: %w", len(v), ErrType)
	}
	a, err := atomizeItem(v[0])
	if err != nil {
		return 0, err
	}
	f, ok := asFloat(a)
	if !ok {
		return 0, fmt.Errorf("pathexpr: %v is not a number: %w", a, ErrType)
	}
	return f, nil
}

// ItemString renders an item as a string (atomizing nodes by color-aware
// string value).
func ItemString(it Item) string {
	if it.Node == nil {
		return asString(it.Atom)
	}
	c := it.Color
	if c == "" {
		colors := it.Node.Colors()
		if len(colors) > 0 {
			c = colors[0]
		}
	}
	s, _ := core.StringValue(it.Node, c)
	return s
}
