package colorful_test

import (
	"os"
	"testing"

	"colorfulxml/internal/lint/linttest"
)

// TestMain verifies no test leaves a goroutine behind: every DB the suite
// opens must stop its probe and scrub workers on Close.
func TestMain(m *testing.M) {
	os.Exit(linttest.VerifyTestMain(m))
}
