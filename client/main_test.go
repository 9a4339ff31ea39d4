package client_test

import (
	"os"
	"testing"

	"colorfulxml/internal/lint/linttest"
)

// TestMain verifies no test leaves a goroutine behind: every fake server a
// test starts must have stopped its accept loop and connection handlers.
func TestMain(m *testing.M) {
	os.Exit(linttest.VerifyTestMain(m))
}
