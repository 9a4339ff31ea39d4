package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the static call graph the whole-program analyzers walk:
// one node per function or method declared (with a body) in the loaded
// packages, call-site edges resolved through go/types. Direct calls resolve
// to exactly one callee; calls through an interface fan out to every method
// of every loaded concrete type implementing that interface (a sound
// over-approximation for code the loader saw — calls into dependencies the
// loader only has export data for simply have no callees, and each analyzer
// decides whether "unresolved" is benign or a finding). Method values and
// function values referenced outside call position are not edges.

// CallGraph is the program's static call graph.
type CallGraph struct {
	// Nodes maps each declared function's stable full name (its
	// generic-origin types.Func FullName, e.g.
	// "(*path/to/pkg.Type).Method") to its node. The key is a string, not
	// the *types.Func itself, because every package is type-checked
	// independently against export data: the object a caller sees for an
	// imported function is a different instance than the one produced by
	// type-checking the defining package's source, and only the full name
	// is stable across those views.
	Nodes map[string]*FuncNode

	named []*types.Named // loaded non-interface named types, for dispatch fan-out
}

// FuncNode is one declared function or method.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call expression in the declaration, in source order,
	// including calls inside nested function literals (flagged InFuncLit).
	Calls []*CallSite
}

// Name renders the node as Func or Type.Method (pointer receivers
// collapsed), the notation Lookup accepts.
func (n *FuncNode) Name() string {
	sig := n.Fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + n.Fn.Name()
		}
	}
	return n.Fn.Name()
}

// CallSite is one call expression inside a declaration.
type CallSite struct {
	Call *ast.CallExpr
	// Callees holds the resolved targets: one for a direct call, several for
	// interface dispatch, none when the target is outside the loaded
	// program or truly dynamic (a call through a function-typed variable).
	Callees []*FuncNode
	// Go marks the call as the operand of a go statement; InFuncLit marks it
	// lexically inside a function literal of the enclosing declaration (so
	// it does not execute on the declaring function's own control flow).
	Go        bool
	InFuncLit bool
}

// BuildCallGraph constructs the call graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[string]*FuncNode{}}

	// Pass 1: nodes for every declaration with a body, plus the named-type
	// universe interface dispatch fans out over.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[funcKey(fn)] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
	}

	// Pass 2: edges.
	for _, n := range g.Nodes {
		g.scan(n, n.Decl.Body, false)
	}
	return g
}

// scan walks body collecting call sites for n. go operands are marked by
// visiting the go statement before its call child.
func (g *CallGraph) scan(n *FuncNode, body ast.Node, inLit bool) {
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if !inLit {
				g.scan(n, v.Body, true)
				return false
			}
			return true // already inside a literal; flags unchanged
		case *ast.GoStmt:
			goCalls[v.Call] = true
		case *ast.CallExpr:
			n.Calls = append(n.Calls, &CallSite{
				Call:      v,
				Callees:   g.resolveFuncExpr(n.Pkg, v.Fun),
				Go:        goCalls[v],
				InFuncLit: inLit,
			})
		}
		return true
	})
}

// funcKey is the stable cross-package identity of a function: its
// generic-origin full name.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// node maps a types.Func to its declared node, normalizing instantiated
// generic methods back to their origin; nil for functions outside the
// loaded program.
func (g *CallGraph) node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.Nodes[funcKey(fn)]
}

// resolveFuncExpr resolves an expression in function position (a call's
// Fun) to its possible declared targets.
func (g *CallGraph) resolveFuncExpr(pkg *Package, e ast.Expr) []*FuncNode {
	switch fun := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if n := g.node(fn); n != nil {
				return []*FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return g.implementers(iface, fn)
			}
		}
		if n := g.node(fn); n != nil {
			return []*FuncNode{n}
		}
	}
	return nil
}

// implementers fans an interface method out to the corresponding concrete
// method of every loaded named type implementing the interface.
func (g *CallGraph) implementers(iface *types.Interface, m *types.Func) []*FuncNode {
	var out []*FuncNode
	for _, named := range g.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name())
		if mf, ok := obj.(*types.Func); ok {
			if n := g.node(mf); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// Lookup finds a node by package-path suffix and Name() notation
// ("Open", "DB.Close"); nil when absent. Test and debugging helper.
func (g *CallGraph) Lookup(pkgSuffix, name string) *FuncNode {
	for _, n := range g.Nodes {
		if pathHasSuffix(n.Pkg.Path, pkgSuffix) && n.Name() == name {
			return n
		}
	}
	return nil
}

// CalleesNamed flattens a node's resolved callee names, call order, for
// compact test assertions: "pkgname.Func" / "pkgname.Type.Method".
func (n *FuncNode) CalleesNamed() []string {
	var out []string
	for _, cs := range n.Calls {
		for _, c := range cs.Callees {
			out = append(out, c.Pkg.Name+"."+c.Name())
		}
	}
	return out
}
