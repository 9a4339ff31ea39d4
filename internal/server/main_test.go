package server_test

import (
	"os"
	"testing"

	"colorfulxml/internal/lint/linttest"
)

// TestMain verifies no test leaves a goroutine behind: Shutdown must end
// the accept loop and every connection's serveConn.
func TestMain(m *testing.M) {
	os.Exit(linttest.VerifyTestMain(m))
}
