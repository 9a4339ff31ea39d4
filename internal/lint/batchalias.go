package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BatchAlias enforces the vectorized-execution aliasing contract of
// internal/engine (DESIGN §11): rows handed out by Batch.Row and
// batchCursor.pull are *views* into a reused buffer, valid only until the
// batch is next refilled or recycled — anything kept longer must
// be copied (Ctx.copyRow / concatRow) first. The analyzer runs a forward
// may-poisoned dataflow over each function's CFG: assigning a view
// expression marks the variable a view of its batch (identified by the root
// variable of the receiver — b for b.Row(i), c for c.pull(ctx)); an
// invalidating call on the same root (Reset, free, close, pull, NextBatch,
// pullBatch, arena release) poisons every view of
// that root; using a poisoned view on any path is a finding. Reassigning
// the variable clears the poison, which is exactly the refill idiom:
// `r, ok, err := c.pull(ctx)` first invalidates the previous view of c,
// then binds r to the fresh one.
//
// Scope: packages named engine. Views escaping through returns or struct
// fields are not tracked (batchCursor.pull itself returns a view — that is
// the documented hand-off, and its callers are checked in turn).
var BatchAlias = &Analyzer{
	Name: "batchalias",
	Doc:  "no batch row view may be used after its batch was refilled or recycled",
	Run:  runBatchAlias,
}

// viewState tracks one view variable: which root it aliases and whether an
// invalidation poisoned it (poisonPos set).
type viewState struct {
	base      types.Object
	poisonPos token.Pos
	poison    string // the invalidating call, for the message
}

func runBatchAlias(pass *Pass) error {
	if pass.Pkg.Name() != "engine" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBatchAliases(pass, fd)
		}
	}
	return nil
}

func checkBatchAliases(pass *Pass, fd *ast.FuncDecl) {
	Flow[map[types.Object]viewState]{
		Entry: map[types.Object]viewState{},
		Transfer: func(b *Block, in map[types.Object]viewState, emit bool) map[types.Object]viewState {
			st := mergeViewStates(in, nil)
			for _, s := range b.Stmts {
				batchAliasStmt(pass, s, st, emit)
			}
			return st
		},
		Join:  mergeViewStates,
		Equal: viewStatesEqual,
	}.Solve(BuildCFG(fd.Body))
}

// batchAliasStmt applies one statement to the view state, in contract
// order: invalidations fire first (a refill kills the previous views),
// then uses of poisoned views are reported, then assignments bind fresh
// views.
func batchAliasStmt(pass *Pass, s ast.Stmt, st map[types.Object]viewState, emit bool) {
	// 1. Invalidations.
	ast.Inspect(s, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			for _, inv := range invalidatedRoots(pass, v) {
				for obj, vs := range st {
					if vs.base == inv.base && vs.poisonPos == token.NoPos {
						vs.poisonPos = v.Pos()
						vs.poison = inv.name
						st[obj] = vs
					}
				}
			}
		}
		return true
	})

	// 2. Uses of poisoned views.
	lhs := map[*ast.Ident]bool{}
	var assign *ast.AssignStmt
	if a, ok := s.(*ast.AssignStmt); ok {
		assign = a
		for _, l := range a.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				lhs[id] = true
			}
		}
	}
	ast.Inspect(s, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if lhs[v] {
				return true
			}
			obj := pass.Info.Uses[v]
			vs, tracked := st[obj]
			if !tracked || vs.poisonPos == token.NoPos {
				return true
			}
			if emit {
				pass.Reportf(v.Pos(), "batch row view %s used after %s invalidated its batch (line %d); copy the row before the batch is recycled",
					v.Name, vs.poison, pass.Fset.Position(vs.poisonPos).Line)
			}
		}
		return true
	})

	// 3. Assignments binding or clearing views.
	if assign == nil {
		return
	}
	bind := func(l ast.Expr, r ast.Expr) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if base, ok := viewBase(pass, r); ok {
			st[obj] = viewState{base: base}
		} else {
			delete(st, obj)
		}
	}
	if len(assign.Rhs) == len(assign.Lhs) {
		for i, l := range assign.Lhs {
			bind(l, assign.Rhs[i])
		}
	} else if len(assign.Rhs) == 1 {
		// Multi-value: only the first result of pull is a view.
		bind(assign.Lhs[0], assign.Rhs[0])
		for _, l := range assign.Lhs[1:] {
			bind(l, nil)
		}
	}
}

// viewBase reports whether e creates a batch/arena view, returning the root
// variable of the backing object.
func viewBase(pass *Pass, e ast.Expr) (types.Object, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	recv := engineRecvType(pass, sel.X)
	switch {
	case recv == "Batch" && sel.Sel.Name == "Row",
		recv == "batchCursor" && sel.Sel.Name == "pull",
		recv == "arena" && sel.Sel.Name == "alloc":
		return rootObj(pass, sel.X), rootObj(pass, sel.X) != nil
	}
	return nil, false
}

// invalidation is one root whose views a call kills.
type invalidation struct {
	base types.Object
	name string
}

// invalidatedRoots lists the roots a call invalidates, per the batch
// ownership contract.
func invalidatedRoots(pass *Pass, call *ast.CallExpr) []invalidation {
	var out []invalidation
	add := func(e ast.Expr, name string) {
		if obj := rootObj(pass, e); obj != nil {
			out = append(out, invalidation{obj, name})
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		recv := engineRecvType(pass, fun.X)
		m := fun.Sel.Name
		switch {
		case recv == "Batch" && (m == "Reset" || m == "free"):
			add(fun.X, "Batch."+m)
		case recv == "batchCursor" && (m == "pull" || m == "close"):
			add(fun.X, "batchCursor."+m)
		case recv == "arena" && m == "release":
			add(fun.X, "arena.release")
		}
	case *ast.Ident:
		obj := pass.Info.Uses[fun]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "engine" {
			return out
		}
		switch {
		case fun.Name == "NextBatch" && len(call.Args) >= 2:
			add(call.Args[1], "NextBatch")
		case fun.Name == "pullBatch" && len(call.Args) >= 3:
			add(call.Args[2], "pullBatch")
		}
	}
	return out
}

// engineRecvType names the engine type a receiver expression has ("Batch",
// "batchCursor", "arena"); "" otherwise.
func engineRecvType(pass *Pass, recv ast.Expr) string {
	named := derefNamed(pass.Info.Types[recv].Type)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "engine" {
		return ""
	}
	return named.Obj().Name()
}

// rootObj resolves the outermost variable an expression dereferences:
// c for c.buf, b for (&b), o for o.in.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.Ident:
			return pass.Info.Uses[v]
		default:
			return nil
		}
	}
}

func mergeViewStates(a, b map[types.Object]viewState) map[types.Object]viewState {
	m := map[types.Object]viewState{}
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		prev, ok := m[k]
		if !ok {
			m[k] = v
			continue
		}
		// May-analysis: poisoned on any path wins; earliest position for
		// deterministic messages.
		if v.poisonPos != token.NoPos && (prev.poisonPos == token.NoPos || v.poisonPos < prev.poisonPos) {
			m[k] = v
		}
	}
	return m
}

func viewStatesEqual(a, b map[types.Object]viewState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
