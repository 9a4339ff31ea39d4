package lint

import (
	"go/ast"
	"go/types"
)

// CommitScope enforces the durability contract of DESIGN.md §8: in package
// colorful, every mutation of the store happens inside the one durable commit
// scope, DB.commitLocked (DB.commit is it under the writer lock), which
// brackets the mutation with beginCommit and commitChanges. A mutation
// outside it leaves acknowledged in-memory state that was never written
// ahead to the WAL: the next crash silently loses it, which is precisely the
// failure class the crashtest harness exists to rule out.
//
// The rule is structural, so it needs no flow analysis:
//   - a core-mutator call (a coreMutators method of a type named Database)
//     must sit lexically inside a function literal passed directly to
//     commit or commitLocked — and that literal must be the innermost one,
//     so a closure stored in a variable or started with `go` does not count;
//   - beginCommit and commitChanges may be called only from commitLocked.
var CommitScope = &Analyzer{
	Name: "commitscope",
	Doc:  "colorful.DB mutations run in a closure passed to commit/commitLocked, the only caller of beginCommit/commitChanges",
	Run:  runCommitScope,
}

// coreMutators are the embedded core.Database methods that mutate the store
// and therefore must run inside a commit scope.
var coreMutators = map[string]bool{
	"AddElement": true, "AddElementText": true, "Adopt": true,
	"SetText": true, "CopySubtree": true, "AddDatabaseColor": true,
	"SetAttribute": true, "Rename": true, "RemoveAttribute": true,
	"AppendText": true, "AddColor": true, "RemoveColor": true,
	"Append": true, "InsertBefore": true, "Detach": true,
	"Delete": true, "DeleteSubtree": true,
}

func runCommitScope(pass *Pass) error {
	if pass.Pkg.Name() != "colorful" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCommitScope(pass, fd)
			}
		}
	}
	return nil
}

func checkCommitScope(pass *Pass, fd *ast.FuncDecl) {
	scoped := map[*ast.FuncLit]bool{} // literals passed straight to commit/commitLocked
	// walk visits one function body; inScope says whether it is a scoped
	// literal's. A commit call is visited before its arguments, so a literal
	// is marked before its body is walked.
	var walk func(body *ast.BlockStmt, inScope bool)
	walk = func(body *ast.BlockStmt, inScope bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				walk(fl.Body, scoped[fl])
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := calleeName(call); {
			case name == "commit" || name == "commitLocked":
				for _, a := range call.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						scoped[fl] = true
					}
				}
			case name == "beginCommit" || name == "commitChanges":
				if fd.Name.Name != "commitLocked" {
					pass.Reportf(call.Pos(), "%s called outside commitLocked; run the mutation through commit/commitLocked instead", name)
				}
			case coreMutators[name] && !inScope && isCoreDatabaseMethod(pass.Info, call):
				pass.Reportf(call.Pos(),
					"core mutator %s called outside a durable commit scope; call it inside a closure passed directly to commit/commitLocked or the mutation will not survive a crash",
					name)
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// isCoreDatabaseMethod reports whether the call resolves to a method whose
// receiver is (a pointer to) a type named Database — the core store, as
// opposed to the locked DB wrapper of the same name.
func isCoreDatabaseMethod(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := derefNamed(recv.Type())
	return named != nil && named.Obj().Name() == "Database"
}
