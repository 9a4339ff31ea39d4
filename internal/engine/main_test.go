package engine_test

import (
	"os"
	"testing"

	"colorfulxml/internal/lint/linttest"
)

// TestMain verifies no test leaves a goroutine behind: every operator must
// be done with its pipeline when the pipeline closes.
func TestMain(m *testing.M) {
	os.Exit(linttest.VerifyTestMain(m))
}
