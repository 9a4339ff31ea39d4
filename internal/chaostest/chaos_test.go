package chaostest

import (
	"path/filepath"
	"testing"
)

// logReport logs a run's resilience numbers: fault count and rate, commits
// acked, rejected read-only and retried transient, and the health machinery's
// degrades, heals, outages and mean time to recovery.
func logReport(t *testing.T, rep Report) {
	t.Helper()
	var rate float64
	if s := rep.Elapsed.Seconds(); s > 0 {
		rate = float64(rep.Events) / s
	}
	t.Logf("faults=%d (%.0f/s) in %.1f ms; commits: %d attempted, %d acked, %d rejected read-only, %d retried transient; reads: %d verified; health: %d degrades, %d heals, %d outages, MTTR %.1f ms",
		rep.Events, rate, float64(rep.Elapsed.Microseconds())/1e3,
		rep.Writes, rep.Acked, rep.Rejected, rep.Retries, rep.Reads,
		rep.Degrades, rep.Heals, rep.Outages, rep.MTTRMillis)
}

// TestChaosAcceptance is the acceptance run: at least 500 injected fault
// events against concurrent writers and readers, differentially verified.
func TestChaosAcceptance(t *testing.T) {
	cfg := DefaultConfig(filepath.Join(t.TempDir(), "db"), 1)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, rep)
	if rep.Events < int64(cfg.Events) {
		t.Fatalf("only %d fault events injected, want >= %d", rep.Events, cfg.Events)
	}
	if rep.Acked == 0 {
		t.Fatal("no commit was ever acknowledged under chaos")
	}
	if rep.Reads == 0 {
		t.Fatal("no verification read completed under chaos")
	}
	if rep.Outages > 0 && rep.Heals == 0 {
		t.Fatalf("outages injected but no heal recorded: %+v", rep)
	}
}

// TestChaosSeeds runs shorter schedules across several seeds so schedule
// shapes beyond the acceptance seed stay covered.
func TestChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos in -short mode")
	}
	for _, seed := range []int64{7, 23, 99} {
		seed := seed
		t.Run(filepath.Base(string(rune('a'+seed%26))), func(t *testing.T) {
			cfg := DefaultConfig(filepath.Join(t.TempDir(), "db"), seed)
			cfg.Events = 150
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, rep)
			if rep.Events < int64(cfg.Events) {
				t.Fatalf("only %d fault events injected, want >= %d", rep.Events, cfg.Events)
			}
		})
	}
}
