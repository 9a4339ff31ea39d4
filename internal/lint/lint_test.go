package lint_test

import (
	"os/exec"
	"testing"

	"colorfulxml/internal/lint"
	"colorfulxml/internal/lint/linttest"
)

func TestVFSOnly(t *testing.T)         { linttest.Run(t, lint.VFSOnly, "vfsonly") }
func TestCommitScope(t *testing.T)     { linttest.Run(t, lint.CommitScope, "commitscope") }
func TestSessionClose(t *testing.T)    { linttest.Run(t, lint.SessionClose, "sessionclose") }
func TestCtxPoll(t *testing.T)         { linttest.Run(t, lint.CtxPoll, "ctxpoll") }
func TestErrWrapSentinel(t *testing.T) { linttest.Run(t, lint.ErrWrapSentinel, "errwrapsentinel") }
func TestDeterminism(t *testing.T)     { linttest.Run(t, lint.Determinism, "determinism") }
func TestLockOrder(t *testing.T)       { linttest.Run(t, lint.LockOrder, "lockorder") }
func TestBatchAlias(t *testing.T)      { linttest.Run(t, lint.BatchAlias, "batchalias") }

// TestRepoClean runs the whole suite over the repository itself: the tree
// must stay free of diagnostics. A failure here is a real invariant
// violation — fix the flagged code, not this test.
func TestRepoClean(t *testing.T) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	findings, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestMctlintCommand exercises the CI entry point end to end: the mctlint
// command must build, run over ./..., and exit 0.
func TestMctlintCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestRepoClean covers the analyzers in-process")
	}
	cmd := exec.Command("go", "run", "./cmd/mctlint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/mctlint ./...: %v\n%s", err, out)
	}
}
