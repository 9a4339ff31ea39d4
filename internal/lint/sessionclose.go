package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SessionClose enforces the session-kernel lifecycle contract of DESIGN.md
// §12: every colorful.DB.Session() and Prepare() result must reach Close.
// An unclosed Session pins the DB's drain forever — DB.Close waits for every
// session to finish — and an unclosed Stmt pins its plan in the session for
// as long as the session lives. The network client carries the same shape of
// obligation: a Pool.Get checkout holds a capacity slot until Release (or
// Close), and a client.Open/Dial/Prepare result holds sockets or server
// handles until Close. The analyzer tracks each creation as a may-set of
// three states (before the creation, live, closed-or-escaped) over the
// function's CFG, with the Flow solver the other flow analyzers share.
//
// Ownership transfer ends the obligation here: returning the value, passing
// it to a call, storing it in a field/slice/map/channel, or capturing it in
// a function literal all move responsibility to the receiver, which this
// per-function analysis cannot follow. What it can always flag: results
// that are discarded outright (an unbound call, a blank assignment, a
// method chained off the fresh value) and variables that are provably still
// open on a return path with no deferred Close.
var SessionClose = &Analyzer{
	Name: "sessionclose",
	Doc:  "colorful Session()/Prepare() and client Get/Dial/Open results must reach Close or Release on every path",
	Run:  runSessionClose,
}

// sessionConstructors are the functions whose results carry a close
// obligation, keyed by the package-path suffix that defines them: the
// colorful session kernel, and the network client's pooled handles.
var sessionConstructors = map[string]map[string]bool{
	"colorful": {
		"Session": true,
		"Prepare": true,
	},
	"client": {
		"Get":         true, // Pool.Get checkout holds a capacity slot
		"Dial":        true,
		"Open":        true,
		"OpenOptions": true,
		"Prepare":     true,
	},
}

// sessionClosers are the methods that discharge the obligation. Release is
// the client pool's healthy-return path; Close retires or destroys.
var sessionClosers = map[string]bool{
	"Close":   true,
	"Release": true,
}

// isSessionConstructor reports whether the call resolves to one of the
// tracked constructors (suffix-scoped by package path so fixture modules
// mirroring the layout are covered too).
func isSessionConstructor(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	for suffix, names := range sessionConstructors {
		if names[obj.Name()] && pathHasSuffix(obj.Pkg().Path(), suffix) {
			return true
		}
	}
	return false
}

func runSessionClose(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Function literals get their own pass: a session opened inside a
			// goroutine or callback body must be closed on that body's paths.
			bodies := []*ast.BlockStmt{fd.Body}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					bodies = append(bodies, fl.Body)
				}
				return true
			})
			for _, b := range bodies {
				checkSessionClose(pass, b)
			}
		}
	}
	return nil
}

// checkSessionClose classifies every constructor call in one body (nested
// function literals excluded — they are analyzed as their own bodies) and
// flow-checks the ones bound to a variable.
func checkSessionClose(pass *Pass, body *ast.BlockStmt) {
	parents := parentMap(body)
	for _, call := range sessionCalls(pass.Info, body) {
		switch p := parents[call].(type) {
		case *ast.AssignStmt:
			trackAssigned(pass, body, call, p)
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if v != ast.Expr(call) || i >= len(p.Names) {
					continue
				}
				trackSessionVar(pass, body, call, p.Names[i], nil)
			}
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"result of %s is discarded; a Session/Stmt must reach Close", calleeName(call))
		case *ast.SelectorExpr:
			// A method chained off the fresh value: nothing holds it afterward.
			if !sessionClosers[p.Sel.Name] {
				pass.Reportf(call.Pos(),
					"result of %s is not bound to a variable; it can never be closed", calleeName(call))
			}
		default:
			// Return value, call argument, composite literal, channel send,
			// parenthesis under one of those: ownership escapes this function.
		}
	}
}

// trackAssigned resolves which LHS of an assignment receives the
// constructor result and flow-checks it.
func trackAssigned(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, as *ast.AssignStmt) {
	idx := 0
	if len(as.Lhs) == len(as.Rhs) {
		for i, r := range as.Rhs {
			if r == ast.Expr(call) {
				idx = i
			}
		}
	}
	// Multi-value forms (st, err := s.Prepare(q)) bind the object first.
	if idx >= len(as.Lhs) {
		return
	}
	id, ok := as.Lhs[idx].(*ast.Ident)
	if !ok {
		// Stored straight into a field/index expression: ownership escapes.
		return
	}
	// The companion of a multi-value form (st, err := s.Prepare(q)): on the
	// path where that error is non-nil the constructor failed and there is
	// nothing to close.
	var errObj types.Object
	for i, l := range as.Lhs {
		if i == idx {
			continue
		}
		if eid, ok := l.(*ast.Ident); ok && eid.Name != "_" {
			if o := objectOf(pass.Info, eid); o != nil {
				errObj = o
			}
		}
	}
	trackSessionVar(pass, body, call, id, errObj)
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func trackSessionVar(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, id *ast.Ident, errObj types.Object) {
	if id.Name == "_" {
		pass.Reportf(call.Pos(),
			"result of %s is assigned to the blank identifier; it can never be closed", calleeName(call))
		return
	}
	obj := objectOf(pass.Info, id)
	if obj == nil {
		return
	}
	fl := &sessFlow{pass: pass, create: call, obj: obj, errObj: errObj, name: id.Name}
	cfg := BuildCFG(body)
	in := Flow[sessState]{
		Entry:    sessPre,
		Transfer: fl.transfer,
		Join:     func(a, b sessState) sessState { return a | b },
		Equal:    func(a, b sessState) bool { return a == b },
		Edge:     fl.edge,
	}.Solve(cfg)
	if in[cfg.Exit.Index]&sessLive != 0 {
		pass.Reportf(body.Rbrace,
			"%s can reach the end of the function still open; close it (or defer Close) on every path", fl.name)
	}
}

// sessionCalls collects constructor calls in source order, skipping nested
// function literals.
func sessionCalls(info *types.Info, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && isSessionConstructor(info, c) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// parentMap records each node's immediate parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// Abstract states for one tracked variable, as a bitmask so branch joins
// are unions.
type sessState uint8

const (
	sessPre  sessState = 1 << iota // before the constructor call
	sessLive                       // created, not yet closed or escaped
	sessDone                       // closed, or ownership escaped
	sessNone sessState = 0         // unreachable (terminated path)
)

// sessFlow is one variable's create/close state machine, the transfer
// function of its flow over the body's CFG.
type sessFlow struct {
	pass   *Pass
	create *ast.CallExpr
	obj    types.Object
	errObj types.Object // companion error of a multi-value creation, if any
	name   string
}

// transfer applies b's statements to the state set. A return reports a
// live variable and, like a terminal call, ends its path: what reaches the
// Exit block is what falls off the closing brace.
func (fl *sessFlow) transfer(b *Block, in sessState, emit bool) sessState {
	for _, s := range b.Stmts {
		if in == sessNone {
			break
		}
		switch x := s.(type) {
		case *ast.ReturnStmt:
			if in = fl.scanStmt(in, x, emit); in&sessLive != 0 && emit {
				fl.pass.Reportf(x.Pos(),
					"return leaks %s while it is still open; close it (or defer Close) before returning", fl.name)
			}
			in = sessNone
		case *ast.ExprStmt:
			in = fl.scanStmt(in, x, emit)
			if isTerminalCall(x.X) {
				in = sessNone
			}
		case *ast.AssignStmt:
			for _, e := range x.Rhs {
				in = fl.scanStmt(in, e, emit)
			}
			for _, e := range x.Lhs {
				// Assigning to the tracked variable (its definition, or a plain
				// reassignment) is neither a use nor an escape.
				if id, ok := ast.Unparen(e).(*ast.Ident); !ok || !fl.isVar(id) {
					in = fl.scanStmt(in, e, emit)
				}
			}
		default:
			// A deferred Close guards every later exit; taking it as an
			// immediate transition is sound for the paths that follow it.
			in = fl.scanStmt(in, s, emit)
		}
	}
	return in
}

// edge refines the state along an if's edges: past an err-nil guard on the
// creation's companion error, the failing edge has nothing to close,
// because a failed constructor returns nothing.
func (fl *sessFlow) edge(b *Block, i int, out sessState) sessState {
	if b.Cond != nil && fl.failingEdge(b.Cond) == i && out&sessLive != 0 {
		return out&^sessLive | sessDone
	}
	return out
}

// failingEdge returns the edge of an if on cond (0 true, 1 false) taken
// when the creation's companion error is non-nil, or -1 when cond is not an
// err-nil guard on it.
func (fl *sessFlow) failingEdge(cond ast.Expr) int {
	if fl.errObj == nil {
		return -1
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return -1
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && fl.pass.Info.Uses[id] == fl.errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case !(isErr(be.X) && isNil(be.Y)) && !(isNil(be.X) && isErr(be.Y)):
		return -1
	case be.Op == token.NEQ: // if err != nil { ... }
		return 0
	default: // if err == nil { ... } else { ... }
		return 1
	}
}

// sessEvent is one state-affecting occurrence inside an expression, applied
// in source order.
type sessEvent struct {
	pos  ast.Node
	kind int // 0 create, 1 close, 2 escape
}

const (
	evCreate = iota
	evClose
	evEscape
)

// scanStmt applies the variable's transitions for every occurrence under n,
// in source order; emit is the solver's final pass.
func (fl *sessFlow) scanStmt(in sessState, n ast.Node, emit bool) sessState {
	var events []sessEvent
	skip := map[ast.Node]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if skip[m] {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			// Capturing the variable in a closure transfers ownership (a
			// deferred closure Close, a t.Cleanup, a goroutine that closes).
			if fl.references(x) {
				events = append(events, sessEvent{pos: x, kind: evEscape})
			}
			return false
		case *ast.CallExpr:
			if x == fl.create {
				events = append(events, sessEvent{pos: x, kind: evCreate})
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && fl.isVar(id) {
					if sessionClosers[sel.Sel.Name] {
						events = append(events, sessEvent{pos: x, kind: evClose})
					}
					// A method call on the variable (Query, Stats, ...) is a
					// use, not an escape; don't descend into the receiver.
					skip[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && fl.isVar(id) {
				// Field access through the variable: a use, not an escape.
				return false
			}
		case *ast.Ident:
			// Only a genuine use escapes; the defining occurrence (`:=` LHS,
			// ValueSpec name) is in Defs, not Uses.
			if fl.pass.Info.Uses[x] == fl.obj {
				events = append(events, sessEvent{pos: x, kind: evEscape})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos.Pos() < events[j].pos.Pos() })
	for _, ev := range events {
		in = fl.transition(in, ev, emit)
	}
	return in
}

func (fl *sessFlow) transition(in sessState, ev sessEvent, emit bool) sessState {
	switch ev.kind {
	case evCreate:
		if in&sessLive != 0 && emit {
			fl.pass.Reportf(ev.pos.Pos(),
				"%s is reassigned while still open; close the previous Session/Stmt first", fl.name)
		}
		return sessLive
	case evClose, evEscape:
		return sessDone
	}
	return in
}

// isVar reports whether the identifier resolves to the tracked variable.
func (fl *sessFlow) isVar(id *ast.Ident) bool {
	return fl.pass.Info.Uses[id] == fl.obj || fl.pass.Info.Defs[id] == fl.obj
}

// references reports whether the tracked variable occurs anywhere under n.
func (fl *sessFlow) references(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && fl.isVar(id) {
			found = true
		}
		return !found
	})
	return found
}
