package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LockOrder builds the program's global mutex-acquisition graph and checks
// it two ways. Always: the graph must be acyclic — a cycle is a potential
// deadlock regardless of documentation. When the module's DESIGN.md carries
// a lock-order table (a markdown table between `<!-- lockorder:begin -->`
// and `<!-- lockorder:end -->`, each row `| rank | `+"`class`"+` | note |`),
// every acquisition edge must also agree with it: acquiring B while holding
// A is legal only when A's rank is strictly smaller than B's, and an edge
// between locks the table does not rank at all is an undocumented edge that
// must be added to the table. A ranked class whose package is loaded but
// which the program never acquires is a stale row, reported so the table
// shrinks with the code.
//
// A second marked table, between `<!-- lockfree:begin -->` and
// `<!-- lockfree:end -->` with rows `| `+"`pkg.Type.Method`"+` | `+"`class`"+` | why |`,
// names functions that must never acquire a lock class, directly or through
// any chain of calls: the read path's promise ("a compiled query takes no
// database lock") as something mctlint fails on rather than a comment.
//
// Lock identity is by *class*, not instance: the field path pkg.Type.field
// for mutex fields, pkg.var for package-level mutexes (an RWMutex's read and
// write sides share the class). Edges are discovered by a forward may-held
// dataflow over each function's CFG — Lock/RLock/TryLock add the class,
// Unlock/RUnlock remove it, a deferred Unlock keeps it held to the
// function's end — combined with transitive acquisition summaries at call
// sites: while holding A, calling a function that (transitively) acquires B
// records the edge A → B. Function literals and `go` statements are
// excluded from summaries and event streams — a spawned goroutine does not
// inherit its parent's held set. Local (function-scoped) mutexes and
// self-edges are not tracked; see DESIGN.md §14 for the imprecision notes.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "mutex-acquisition graph must be acyclic and match the DESIGN.md lock-order table",
	RunProgram: runLockOrder,
}

var lockAcquireMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}
var lockReleaseMethods = map[string]bool{
	"Unlock": true, "RUnlock": true,
}

// lockEdge is one observed acquisition ordering: to was acquired (directly
// or via a callee) while from was held.
type lockEdge struct{ from, to string }

func runLockOrder(pass *ProgramPass) error {
	prog := pass.Prog
	cg := prog.CallGraph()
	nodes := sortedNodes(cg)

	// Transitive acquisition summaries: the lock classes calling a function
	// may acquire, through any depth of (non-goroutine) calls.
	trans := map[*FuncNode]map[string]bool{}
	for _, n := range nodes {
		trans[n] = directAcquires(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, cs := range n.Calls {
				if cs.Go || cs.InFuncLit {
					continue
				}
				for _, callee := range cs.Callees {
					for c := range trans[callee] {
						if !trans[n][c] {
							trans[n][c] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// Edge discovery: per-function CFG dataflow of the may-held set.
	edges := map[lockEdge]token.Pos{}
	record := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		e := lockEdge{from, to}
		if old, ok := edges[e]; !ok || pos < old {
			edges[e] = pos
		}
	}
	for _, n := range nodes {
		collectLockEdges(n, trans, record)
	}

	checkLockFree(pass, nodes, trans)

	ranks, haveTable := loadLockRanks(prog)

	keys := make([]lockEdge, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	if haveTable {
		checkStaleRanks(pass, nodes, ranks)
		for _, e := range keys {
			rf, okf := ranks[e.from]
			rt, okt := ranks[e.to]
			switch {
			case okf && okt && rf >= rt:
				pass.Reportf(edges[e], "acquiring %s while holding %s violates the documented lock order (DESIGN.md ranks %s at %d, %s at %d)",
					e.to, e.from, e.from, rf, e.to, rt)
			case !okf || !okt:
				pass.Reportf(edges[e], "undocumented lock-order edge %s -> %s: add it to the DESIGN.md lock-order table", e.from, e.to)
			}
		}
	}

	reportLockCycles(pass, keys, edges)
	return nil
}

// checkLockFree holds every function of the DESIGN.md lock-free table to it:
// the transitive acquisition summary of the function must not contain the
// class. A row whose package is loaded but whose function is not there is
// reported too, so a rename cannot retire the rule silently.
func checkLockFree(pass *ProgramPass, nodes []*FuncNode, trans map[*FuncNode]map[string]bool) {
	rules := loadLockFree(pass.Prog)
	found := map[string]bool{}
	for _, n := range nodes {
		key := n.Pkg.Name + "." + n.Name()
		for _, class := range rules[key] {
			found[key] = true
			if !trans[n][class] {
				continue
			}
			pass.Reportf(n.Decl.Name.Pos(), "%s must not acquire %s (DESIGN.md lock-free table), but %s",
				key, class, acquiresVia(n, class, trans))
		}
	}
	for key := range rules {
		if found[key] {
			continue
		}
		if pkg := loadedPackage(pass.Prog, key); pkg != nil {
			pass.Reportf(pkg.Files[0].Package, "the DESIGN.md lock-free table names %s, which package %s does not declare", key, pkg.Name)
		}
	}
}

// checkStaleRanks reports every ranked class the loaded program never
// acquires — anywhere, function literals and goroutines included — when the
// class's package is among those loaded.
func checkStaleRanks(pass *ProgramPass, nodes []*FuncNode, ranks map[string]int) {
	acquired := map[string]bool{}
	for _, n := range nodes {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if method, class, ok := lockCallClass(n.Pkg, call); ok && lockAcquireMethods[method] {
					acquired[class] = true
				}
			}
			return true
		})
	}
	classes := make([]string, 0, len(ranks))
	for class := range ranks {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		if acquired[class] {
			continue
		}
		if pkg := loadedPackage(pass.Prog, class); pkg != nil {
			pass.Reportf(pkg.Files[0].Package, "the DESIGN.md lock-order table ranks %s, which package %s never acquires: drop the stale row", class, pkg.Name)
		}
	}
}

// loadedPackage returns the loaded package with source that a table key
// (pkg.Name or pkg.Type.field) names, nil when that package is not loaded.
func loadedPackage(prog *Program, key string) *Package {
	pkgName, _, _ := strings.Cut(key, ".")
	for _, pkg := range prog.Packages {
		if pkg.Name == pkgName && len(pkg.Files) > 0 {
			return pkg
		}
	}
	return nil
}

// acquiresVia names how n comes to acquire class: the first call on its own
// control flow whose callee's summary holds it, or n's own Lock.
func acquiresVia(n *FuncNode, class string, trans map[*FuncNode]map[string]bool) string {
	for _, cs := range n.Calls {
		if cs.Go || cs.InFuncLit {
			continue
		}
		for _, callee := range cs.Callees {
			if trans[callee][class] {
				return "reaches it through " + callee.Pkg.Name + "." + callee.Name()
			}
		}
	}
	return "locks it itself"
}

// directAcquires returns the lock classes n acquires on its own control
// flow (excluding function literals, go statements, and defers).
func directAcquires(n *FuncNode) map[string]bool {
	out := map[string]bool{}
	forEachLockStmt(n.Pkg, n.Decl.Body, func(call *ast.CallExpr, method, class string) {
		if lockAcquireMethods[method] {
			out[class] = true
		}
	}, nil)
	return out
}

// forEachLockStmt walks body in source order, skipping function literals,
// go statements, and defer statements, invoking onLock for each mutex
// Lock/Unlock-family call with a resolvable class and onCall for every
// other call expression.
func forEachLockStmt(pkg *Package, body ast.Node, onLock func(*ast.CallExpr, string, string), onCall func(*ast.CallExpr)) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if method, class, ok := lockCallClass(pkg, v); ok {
				onLock(v, method, class)
				return true
			}
			if onCall != nil {
				onCall(v)
			}
		}
		return true
	})
}

// collectLockEdges runs the may-held dataflow over n's CFG, recording an
// edge for every class acquired — directly or through a callee's summary —
// while another class is held.
func collectLockEdges(n *FuncNode, trans map[*FuncNode]map[string]bool, record func(from, to string, pos token.Pos)) {
	cfg := BuildCFG(n.Decl.Body)
	sites := map[*ast.CallExpr]*CallSite{}
	for _, cs := range n.Calls {
		sites[cs.Call] = cs
	}

	transfer := func(b *Block, held map[string]bool, emit bool) map[string]bool {
		h := lockSetUnion(held, nil)
		for _, s := range b.Stmts {
			forEachLockStmt(n.Pkg, s, func(call *ast.CallExpr, method, class string) {
				if lockAcquireMethods[method] {
					if emit {
						for held := range h {
							record(held, class, call.Pos())
						}
					}
					h[class] = true
				} else {
					delete(h, class)
				}
			}, func(call *ast.CallExpr) {
				cs := sites[call]
				if !emit || cs == nil || cs.Go || len(h) == 0 {
					return
				}
				for _, callee := range cs.Callees {
					for acq := range trans[callee] {
						for held := range h {
							record(held, acq, call.Pos())
						}
					}
				}
			})
		}
		return h
	}
	Flow[map[string]bool]{
		Entry: map[string]bool{}, Transfer: transfer, Join: lockSetUnion, Equal: lockSetEqual,
	}.Solve(cfg)
}

func lockSetUnion(a, b map[string]bool) map[string]bool {
	u := map[string]bool{}
	for c := range a {
		u[c] = true
	}
	for c := range b {
		u[c] = true
	}
	return u
}

func lockSetEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if !b[c] {
			return false
		}
	}
	return true
}

// lockCallClass recognizes x.Lock() / x.mu.RLock() / pkgvar.Unlock() calls
// on sync.Mutex / sync.RWMutex, returning the method name and the lock's
// class key.
func lockCallClass(pkg *Package, call *ast.CallExpr) (method, class string, ok bool) {
	fun, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	m := fun.Sel.Name
	if !lockAcquireMethods[m] && !lockReleaseMethods[m] {
		return "", "", false
	}
	obj, isFn := pkg.Info.Uses[fun.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	if named := derefNamed(recv.Type()); named == nil ||
		(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	// The holder expression: either the mutex itself (x.mu, pkgvar) or, for
	// an embedded mutex, the embedding struct (class by its type).
	holder := fun.X
	if named := derefNamed(pkg.Info.Types[holder].Type); named != nil &&
		!(named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync") {
		class = named.Obj().Pkg().Name() + "." + named.Obj().Name()
		return m, class, true
	}
	class, ok = classOfExpr(pkg, holder)
	if !ok {
		return "", "", false
	}
	return m, class, true
}

// classOfExpr names the storage location an expression denotes, as a class
// key shared by every instance: pkgname.Type.field for struct fields,
// pkgname.var for package-level variables. Local variables and arbitrary
// expressions have no class.
func classOfExpr(pkg *Package, e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[v]; ok {
			if named := derefNamed(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Sel.Name, true
			}
			return "", false
		}
		// Qualified identifier: pkgname.Var.
		if obj, ok := pkg.Info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[v].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
	}
	return "", false
}

// derefNamed unwraps pointers down to a named type; nil if the core type is
// unnamed.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// sortedNodes returns the call graph's nodes in source order, so the
// analysis (and in particular edge positions) is deterministic.
func sortedNodes(cg *CallGraph) []*FuncNode {
	nodes := make([]*FuncNode, 0, len(cg.Nodes))
	for _, n := range cg.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	return nodes
}

// reportLockCycles finds strongly connected components of the acquisition
// graph and reports each multi-node component as one potential-deadlock
// finding, positioned at the component's first recorded edge.
func reportLockCycles(pass *ProgramPass, keys []lockEdge, edges map[lockEdge]token.Pos) {
	adj := map[string][]string{}
	var classes []string
	seen := map[string]bool{}
	for _, e := range keys {
		adj[e.from] = append(adj[e.from], e.to)
		for _, c := range []string{e.from, e.to} {
			if !seen[c] {
				seen[c] = true
				classes = append(classes, c)
			}
		}
	}
	sort.Strings(classes)

	// Tarjan's SCC, iterative enough for a handful of lock classes.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, c := range classes {
		if _, ok := index[c]; !ok {
			strong(c)
		}
	}

	for _, comp := range sccs {
		sort.Strings(comp)
		pos := token.Pos(0)
		in := map[string]bool{}
		for _, c := range comp {
			in[c] = true
		}
		for _, e := range keys {
			if in[e.from] && in[e.to] {
				if p := edges[e]; pos == 0 || p < pos {
					pos = p
				}
			}
		}
		pass.Reportf(pos, "lock-order cycle among {%s}: these mutexes are acquired in both orders (potential deadlock)",
			strings.Join(comp, ", "))
	}
}

// designTable returns the rows of the module DESIGN.md's markdown table
// between `<!-- name:begin -->` and `<!-- name:end -->`, each split into
// cells; nil when there is no module DESIGN.md or no such table.
func designTable(prog *Program, name string) [][]string {
	if len(prog.Packages) == 0 {
		return nil
	}
	root := moduleRoot(prog.Packages[0].Dir)
	if root == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil
	}
	_, after, found := strings.Cut(string(data), "<!-- "+name+":begin -->")
	if !found {
		return nil
	}
	table, _, found := strings.Cut(after, "<!-- "+name+":end -->")
	if !found {
		return nil
	}
	var rows [][]string
	for _, line := range strings.Split(table, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "|") {
			rows = append(rows, strings.Split(strings.Trim(line, "|"), "|"))
		}
	}
	return rows
}

// backquoted returns the first backtick-quoted span of a table cell.
func backquoted(cell string) string {
	if _, rest, ok := strings.Cut(cell, "`"); ok {
		if span, _, ok := strings.Cut(rest, "`"); ok {
			return span
		}
	}
	return ""
}

// loadLockFree parses the lock-free table: function (pkg.Func or
// pkg.Type.Method) to the lock classes it must not acquire.
func loadLockFree(prog *Program) map[string][]string {
	rules := map[string][]string{}
	for _, cells := range designTable(prog, "lockfree") {
		if len(cells) < 2 {
			continue
		}
		if fn, class := backquoted(cells[0]), backquoted(cells[1]); fn != "" && class != "" {
			rules[fn] = append(rules[fn], class)
		}
	}
	return rules
}

// loadLockRanks parses the documented lock order out of the module's
// DESIGN.md: rows of a markdown table between the lockorder:begin / end
// markers, each carrying an integer rank cell and a backtick-quoted class
// cell. Returns ok=false when no module DESIGN.md or no marked table exists
// (cycle detection still runs).
func loadLockRanks(prog *Program) (map[string]int, bool) {
	ranks := map[string]int{}
	for _, cells := range designTable(prog, "lockorder") {
		rank := -1
		class := ""
		for _, cell := range cells {
			cell = strings.TrimSpace(cell)
			if rank < 0 {
				if n, err := strconv.Atoi(cell); err == nil {
					rank = n
					continue
				}
			}
			if class == "" {
				class = backquoted(cell)
			}
		}
		if rank >= 0 && class != "" {
			ranks[class] = rank
		}
	}
	return ranks, len(ranks) > 0
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}
