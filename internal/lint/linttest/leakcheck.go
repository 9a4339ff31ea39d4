package linttest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// This file is the repo's goroutine lifecycle guard: a snapshot-diff
// goroutine leak verifier in the spirit of go.uber.org/goleak, built on
// runtime.Stack. It checks that the termination paths are actually taken —
// a test run may not leave stray goroutines behind — which no syntactic
// rule can (a channel that is never closed still looks like a stop
// channel). Wire it into every package that spawns goroutines with
//
//	func TestMain(m *testing.M) { os.Exit(linttest.VerifyTestMain(m)) }
//
// or scope it to one test with
//
//	snap := linttest.Snap()
//	defer snap.VerifyNoLeaks(t)
//
// Goroutine exit is asynchronous (Close returns before a worker finishes
// unwinding), so the check retries with backoff before declaring a leak.

// leakPatience bounds how long a verifier waits for goroutines to unwind
// before declaring them leaked. Generous because -race and loaded CI
// runners deschedule exiting goroutines for surprisingly long.
const leakPatience = 5 * time.Second

// benignMarkers match goroutines the test harness itself runs: a stack
// containing any of them is never reported.
var benignMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.runTests(",
	"testing.(*M).Run(",
	"testing.(*M).before(",
	"os/signal.loop(",
	"runtime.ReadTrace(",
}

// Snapshot is the set of goroutines alive at a point in time; goroutines
// it contains are exempt from a later leak check.
type Snapshot struct {
	ids map[string]bool
}

// Snap records the currently-live goroutines.
func Snap() Snapshot {
	ids := map[string]bool{}
	for _, st := range goroutineStanzas() {
		if id := stanzaID(st); id != "" {
			ids[id] = true
		}
	}
	return Snapshot{ids: ids}
}

// VerifyNoLeaks fails t when goroutines spawned since the snapshot are
// still running after the patience window. Use from a defer at the top of
// a test that spawns workers.
func (s Snapshot) VerifyNoLeaks(t testing.TB) {
	t.Helper()
	if leaked := leakedStacks(s.ids, leakPatience); len(leaked) > 0 {
		t.Errorf("%d leaked goroutine(s):\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// VerifyNoLeaks fails t when any non-harness goroutine is running after
// the patience window, with no baseline exemptions.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	Snapshot{}.VerifyNoLeaks(t)
}

// VerifyTestMain runs a package's tests and then verifies no goroutine
// spawned by them outlived the run:
//
//	func TestMain(m *testing.M) { os.Exit(linttest.VerifyTestMain(m)) }
//
// The leak check only runs when the tests passed, so a leak never masks a
// real failure's exit code.
func VerifyTestMain(m *testing.M) int {
	base := Snap()
	code := m.Run()
	if code != 0 {
		return code
	}
	if leaked := leakedStacks(base.ids, leakPatience); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "linttest: %d goroutine(s) leaked by the test run:\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		return 1
	}
	return code
}

// leakedStacks polls the goroutine dump until nothing unexplained remains
// or patience runs out, returning the offending stanzas.
func leakedStacks(base map[string]bool, patience time.Duration) []string {
	deadline := time.Now().Add(patience)
	wait := time.Millisecond
	for {
		all := goroutineStanzas()
		var leaked []string
		// all[0] is the goroutine running this check.
		for _, st := range all[1:] {
			if base[stanzaID(st)] || benignStack(st) {
				continue
			}
			leaked = append(leaked, st)
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(wait)
		if wait < 100*time.Millisecond {
			wait *= 2
		}
	}
}

// goroutineStanzas captures one runtime.Stack dump of every user
// goroutine, split into per-goroutine stanzas, current goroutine first.
func goroutineStanzas() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// stanzaID extracts the goroutine id from a stanza header
// ("goroutine 42 [chan receive]:" -> "42").
func stanzaID(stanza string) string {
	rest, ok := strings.CutPrefix(stanza, "goroutine ")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return ""
}

func benignStack(stanza string) bool {
	for _, m := range benignMarkers {
		if strings.Contains(stanza, m) {
			return true
		}
	}
	return false
}
