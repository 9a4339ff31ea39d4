package update

import (
	"context"
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// Result reports what an update did.
type Result struct {
	// Tuples is the number of binding tuples the update clause ran for.
	Tuples int
	// NodesTouched is the total number of nodes inserted, deleted, replaced
	// or renamed (the "results" column of the paper's Table 2 for updates).
	NodesTouched int
}

// Executor applies parsed update expressions to an MCT database.
type Executor struct {
	// DefaultColor is the color Bind gives location steps that have no color
	// and no context color to inherit (single-hierarchy databases), as
	// plan.Options.DefaultColor does for BindCompiled.
	DefaultColor core.Color

	ev *mcxquery.Evaluator
}

// NewExecutor creates an executor over db.
func NewExecutor(db *core.Database) *Executor {
	return &Executor{ev: mcxquery.NewEvaluator(db)}
}

// Apply parses and applies an update expression.
func (x *Executor) Apply(src string) (Result, error) {
	u, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return x.Run(u)
}

// Run applies a parsed update expression, binding its tuples with the
// tree-walking evaluator (Bind).
func (x *Executor) Run(u *Update) (Result, error) {
	tuples, err := x.Bind(u)
	if err != nil {
		return Result{}, err
	}
	return x.ApplyTuples(u, tuples)
}

// Tuples are an update's binding tuples: one environment per tuple, with
// every for/let variable bound, in the order the update clause runs for them.
type Tuples []*pathexpr.Env

// Bind evaluates the binding clauses to tuples (exactly like a FLWOR prefix)
// by walking the tree, and filters them with the where clause. It handles
// every update the language admits; it is the fallback for bindings the plan
// compiler rejects and the oracle BindCompiled is tested against.
func (x *Executor) Bind(u *Update) (Tuples, error) {
	db := x.ev.DB
	env := &pathexpr.Env{DB: db, DefaultColor: x.DefaultColor, Ext: x.ev.ExtEval()}
	tuples := Tuples{env}
	for _, cl := range u.Clauses {
		var next Tuples
		for _, te := range tuples {
			v, err := pathexpr.Eval(te, cl.Expr)
			if err != nil {
				return nil, err
			}
			if cl.Let {
				next = append(next, te.Bind(cl.Var, v))
				continue
			}
			for _, it := range v {
				next = append(next, te.Bind(cl.Var, pathexpr.Sequence{it}))
			}
		}
		tuples = next
	}
	if u.Where != nil {
		var kept Tuples
		for _, te := range tuples {
			v, err := pathexpr.Eval(te, u.Where)
			if err != nil {
				return nil, err
			}
			b, err := pathexpr.EffectiveBool(v)
			if err != nil {
				return nil, err
			}
			if b {
				kept = append(kept, te)
			}
		}
		tuples = kept
	}
	return tuples, nil
}

// BindCompiled produces the same tuples as Bind from the indexes: it
// compiles the binding clauses with the plan compiler (a return-less FLWOR,
// plan.CompileBindings), runs the plan on st and resolves each row's
// structural nodes to the database's nodes. st must be a store image of
// exactly the executor's database state — the caller holds the writer lock
// and has brought the snapshot up to date. An error wrapping
// plan.ErrUnsupported (let clauses, attribute bindings, ...) means nothing was
// executed and the caller should use Bind.
func (x *Executor) BindCompiled(u *Update, st *storage.Store, opt plan.Options) (Tuples, error) {
	c, err := plan.CompileBindings(u.Clauses, u.Where, opt)
	if err != nil {
		return nil, err
	}
	db, ext := x.ev.DB, x.ev.ExtEval()
	var tuples Tuples
	// Unpooled: each plan is compiled for this one call, so nothing would
	// reuse a pool, and its scratch is sized to the rows it passes — one
	// tuple's bind allocates one row a buffer.
	_, err = engine.ExecBatches(context.Background(), st, c.Root, func(b *engine.Batch) error {
		for i := 0; i < b.Len(); i++ {
			vars := make(map[string]pathexpr.Sequence, len(c.Cols))
			for j, sn := range b.Row(i) {
				n := db.NodeByID(core.NodeID(sn.Elem))
				if n == nil {
					return fmt.Errorf("update: snapshot element %d is not in the database", sn.Elem)
				}
				vars[c.Cols[j].Var] = pathexpr.Sequence{pathexpr.NodeItem(n, sn.Color)}
			}
			tuples = append(tuples, &pathexpr.Env{DB: db, Vars: vars, Ext: ext})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tuples, nil
}

// ApplyTuples applies the update operations once per binding tuple.
func (x *Executor) ApplyTuples(u *Update, tuples Tuples) (Result, error) {
	res := Result{Tuples: len(tuples)}
	for _, te := range tuples {
		tv, ok := te.Vars[u.Target]
		if !ok {
			return Result{}, fmt.Errorf("update: target $%s is not bound", u.Target)
		}
		if len(tv) != 1 || tv[0].Node == nil {
			return Result{}, fmt.Errorf("update: target $%s must bind a single node", u.Target)
		}
		target := tv[0]
		for _, op := range u.Ops {
			n, err := x.applyOp(te, op, target)
			if err != nil {
				return Result{}, err
			}
			res.NodesTouched += n
		}
	}
	return res, nil
}

// applyOp applies one operation for one tuple; returns nodes touched.
func (x *Executor) applyOp(env *pathexpr.Env, op Op, target pathexpr.Item) (int, error) {
	db := x.ev.DB
	color := target.Color
	if color == "" {
		colors := target.Node.Colors()
		if len(colors) == 0 {
			return 0, fmt.Errorf("update: target node has no colors")
		}
		color = colors[0]
	}
	switch op.Kind {
	case OpDelete:
		v, err := pathexpr.Eval(env, op.Arg)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, it := range v {
			if it.Node == nil {
				return n, fmt.Errorf("update: delete of atomic value")
			}
			c := it.Color
			if c == "" {
				c = color
			}
			if it.Node.Kind() == core.KindAttribute {
				db.RemoveAttribute(it.Node.Owner(), it.Node.Name())
				n++
				continue
			}
			if err := db.DeleteSubtree(it.Node, c); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	case OpInsert, OpInsertBefore, OpInsertAfter:
		v, err := pathexpr.Eval(env, op.Arg)
		if err != nil {
			return 0, err
		}
		var ref *core.Node
		if op.Ref != nil {
			rv, err := pathexpr.Eval(env, op.Ref)
			if err != nil {
				return 0, err
			}
			if len(rv) != 1 || rv[0].Node == nil {
				return 0, fmt.Errorf("update: insert anchor must be a single node")
			}
			ref = rv[0].Node
		}
		n := 0
		for _, it := range v {
			node, err := x.ev.Materialize(it, color, nil)
			if err != nil {
				return n, err
			}
			if node == nil { // atomic item: becomes a text child
				if _, err := db.AppendText(target.Node, pathexpr.ItemString(it)); err != nil {
					return n, err
				}
				n++
				continue
			}
			switch op.Kind {
			case OpInsert:
				if !node.HasColor(color) {
					if err := db.AddColor(node, color); err != nil {
						return n, err
					}
				}
				if err := db.Append(target.Node, node, color); err != nil {
					return n, err
				}
			case OpInsertBefore, OpInsertAfter:
				if !node.HasColor(color) {
					if err := db.AddColor(node, color); err != nil {
						return n, err
					}
				}
				anchor := ref
				if op.Kind == OpInsertAfter {
					sibs := core.FollowingSiblings(ref, color)
					if len(sibs) > 0 {
						anchor = sibs[0]
					} else {
						anchor = nil // append at end
					}
				}
				if err := db.InsertBefore(target.Node, node, anchor, color); err != nil {
					return n, err
				}
			}
			n++
		}
		return n, nil
	case OpReplace:
		v, err := pathexpr.Eval(env, op.Arg)
		if err != nil {
			return 0, err
		}
		rv, err := pathexpr.Eval(env, op.Ref)
		if err != nil {
			return 0, err
		}
		if len(rv) != 1 {
			return 0, fmt.Errorf("update: replace value must be a single item")
		}
		val := pathexpr.ItemString(rv[0])
		n := 0
		for _, it := range v {
			if it.Node == nil {
				return n, fmt.Errorf("update: replace of atomic value")
			}
			switch it.Node.Kind() {
			case core.KindAttribute:
				if _, err := db.SetAttribute(it.Node.Owner(), it.Node.Name(), val); err != nil {
					return n, err
				}
			case core.KindElement:
				if err := db.SetText(it.Node, val); err != nil {
					return n, err
				}
			default:
				return n, fmt.Errorf("update: cannot replace %v", it.Node)
			}
			n++
		}
		return n, nil
	case OpRename:
		v, err := pathexpr.Eval(env, op.Arg)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, it := range v {
			if it.Node == nil {
				return n, fmt.Errorf("update: rename of atomic value")
			}
			if err := db.Rename(it.Node, op.Name); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	default:
		return 0, fmt.Errorf("update: unknown operation")
	}
}
