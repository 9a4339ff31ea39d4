package lint

import (
	"go/ast"
)

// CtxPoll enforces the cancellation discipline of the batched executor
// (DESIGN.md §6/§8/§11): every engine operator's NextBatch that contains a
// loop must reach a cancellation touchpoint. Parents that consume child rows
// get it for free — the executor's pullBatch checks Ctx.Cancel once per
// batch, and a batchCursor's pull() rides on it — but an operator filling a
// batch from its own iteration state (an index scan skipping non-matching
// entries) makes no child pull and would spin past a canceled context for a
// whole scan's worth of rows.
// Such loops must call ctx.poll() (or consult ctx.Cancel) themselves.
//
// Rule: in package engine, a NextBatch (or legacy Next) method that contains
// a loop must reach a cancellation touchpoint somewhere in its body — a call
// to pull or pullBatch, a call to a method named poll or pollBatch, or a use
// of the Cancel field. Methods that poll are trusted with their inner
// bounded loops (copying one row's columns, draining a pending slice into
// the batch); methods with loops and no touchpoint at all are flagged at
// each outermost loop. Loop-free bulk emitters (a materialized operator
// copying a slice range per batch) need no touchpoint: the per-batch check
// in pullBatch bounds their work.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "engine operator NextBatch loops must reach the cancellation poll",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	if pass.Pkg.Name() != "engine" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil ||
				(fd.Name.Name != "NextBatch" && fd.Name.Name != "Next") {
				continue
			}
			checkNextLoops(pass, fd.Body)
		}
	}
	return nil
}

// checkNextLoops flags the outermost loops of a NextBatch body that never
// reaches a cancellation touchpoint. A body that polls anywhere sanctions
// its loops: per invocation the poll counter advances, and the engine's
// inner loops are bounded per pulled row or per emitted batch.
func checkNextLoops(pass *Pass, body *ast.BlockStmt) {
	if subtreePolls(body) {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			pass.Reportf(n.Pos(),
				"loop in an operator NextBatch that never reaches the cancellation check; pull child rows through a cursor or pullBatch, or call ctx.poll() each iteration")
			return false // outermost loops only
		}
		return true
	})
}

// subtreePolls reports whether the loop's subtree contains a cancellation
// touchpoint: a pull/pullBatch call, a poll/pollBatch method call, or any
// use of the Cancel field. Function literals are skipped — a closure's body
// does not run on this loop's iterations.
func subtreePolls(loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch calleeName(x) {
			case "pull", "pullBatch", "poll", "pollBatch":
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Cancel" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
