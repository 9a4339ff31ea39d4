// Package chaostest is the runtime chaos harness: it drives a live colorful
// database — concurrent writers, concurrent readers, the background probe
// and scrubber all running — while a deterministic, seeded fault schedule
// injects disk failures underneath it, and differentially verifies the
// fault-tolerance contract:
//
//   - no acknowledged commit is ever lost (recovery finds every acked write);
//   - reads never observe a rolled-back mutation, live or after reopen;
//   - the database returns to Healthy once the faults clear;
//   - nothing deadlocks (the harness runs under -race in CI).
//
// The schedule interleaves three fault shapes: transient single-operation
// faults absorbed by the retry layer, rate faults (a fraction of all
// durability operations failing), and standing outages that force the
// degrade -> probe -> heal cycle. Everything derives from Config.Seed, so a
// failing run reproduces exactly.
//
// Unlike internal/crashtest (which kills simulated processes between
// operations and checks recovery), chaostest never stops the process: it is
// about the serving path staying correct while the disk misbehaves.
package chaostest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/vfs"
)

// retriesNow reads the process-global transient-retry counters the storage
// layer maintains; Run reports the delta across the run.
func retriesNow() uint64 {
	c := obs.Default.Snapshot().Counters
	return c["wal_retries_total"] + c["storage_retries_total"]
}

// Config parameterizes one chaos run. The zero value is not runnable; use
// DefaultConfig as a base.
type Config struct {
	// Dir is the database directory (required; caller owns cleanup).
	Dir string
	// Seed drives the fault schedule and all harness randomness.
	Seed int64
	// Events is the minimum number of injected fault events before the
	// schedule winds down.
	Events int
	// Writers and Readers size the concurrent workload.
	Writers int
	Readers int
	// Rate is the background transient-fault probability while a rate window
	// is active (0..1).
	Rate float64
	// OutageEvery inserts a standing outage after this many schedule rounds.
	OutageEvery int
}

// DefaultConfig returns the acceptance-grade configuration: at least 500
// injected fault events against 4 writers and 4 readers.
func DefaultConfig(dir string, seed int64) Config {
	return Config{
		Dir:         dir,
		Seed:        seed,
		Events:      500,
		Writers:     4,
		Readers:     4,
		Rate:        0.2,
		OutageEvery: 8,
	}
}

// Report is what one chaos run measured.
type Report struct {
	// Events is the number of faults actually injected.
	Events int64
	// Writes counts attempted commits; Acked the acknowledged ones; Rejected
	// the ones refused or rolled back (degraded/read-only).
	Writes   int
	Acked    int
	Rejected int
	// Reads counts verification reads performed by the reader goroutines.
	Reads int64
	// Degrades and Heals are deltas of the health machinery counters across
	// the run.
	Degrades uint64
	Heals    uint64
	// Retries is the delta of the storage-layer transient-retry counters
	// (WAL appends/fsyncs plus checkpoint installs) across the run: commits
	// that hit a fault and were absorbed by backoff rather than surfacing.
	// The counters are process-global, so a concurrently running database
	// would be included; the harness owns its process in practice.
	Retries uint64
	// Outages is the number of standing-outage windows injected; MTTRMillis
	// the mean time from clearing an outage to the database reporting
	// Healthy again.
	Outages    int
	MTTRMillis float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// chaosColor is the color the workload writes under.
const chaosColor colorful.Color = "chaos"

// quickRetry is the retry schedule chaos runs use: real backoff shape, no
// real sleeping, so a run injecting hundreds of faults stays fast.
func quickRetry(seed int64) *vfs.RetryPolicy {
	return &vfs.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Budget:      time.Second,
		Seed:        seed | 1,
		Sleep:       func(time.Duration) {},
	}
}

// Run executes one chaos run and verifies the fault-tolerance contract,
// returning measurements. Any contract violation is an error.
func Run(cfg Config) (Report, error) {
	if cfg.Dir == "" {
		return Report{}, errors.New("chaostest: Config.Dir is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ffs := vfs.NewFaultFS(vfs.OS, cfg.Seed)
	db, err := colorful.OpenOptions(cfg.Dir, colorful.Options{
		FS:            ffs,
		Retry:         quickRetry(cfg.Seed),
		ProbeInterval: time.Millisecond,
		ScrubInterval: 5 * time.Millisecond,
	}, chaosColor)
	if err != nil {
		return Report{}, fmt.Errorf("chaostest: open: %w", err)
	}
	defer db.Close()
	baseInfo := db.HealthInfo()
	baseRetries := retriesNow()
	docID := db.Document().ID()
	start := time.Now()

	var (
		rep      Report
		mu       sync.Mutex // guards acked/refused/rep write counters
		acked    = map[string]bool{}
		refused  = map[string]bool{}
		stop     = make(chan struct{})
		violence atomic.Pointer[string] // first contract violation
	)
	violate := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		violence.CompareAndSwap(nil, &msg)
	}

	var wg sync.WaitGroup
	// Writers: uniquely-named elements; the ack log is the ground truth the
	// final differential check verifies recovery against.
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("e-w%d-%d", w, i)
				root := db.NodeByID(docID)
				_, err := db.AddElementText(root, name, chaosColor, "v")
				mu.Lock()
				rep.Writes++
				switch {
				case err == nil:
					rep.Acked++
					acked[name] = true
				case errors.Is(err, colorful.ErrReadOnly):
					rep.Rejected++
					refused[name] = true
				case errors.Is(err, colorful.ErrFailed), errors.Is(err, colorful.ErrClosed):
					mu.Unlock()
					violate("writer %d: database left serving: %v", w, err)
					return
				default:
					mu.Unlock()
					violate("writer %d: unexpected commit error: %v", w, err)
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	// Readers: every result set must consist of acked or still-in-flight
	// writes only — a refused (rolled-back) name appearing is a violation.
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				items, err := db.Query(`document("db")/{chaos}child::*`)
				if err != nil {
					violate("reader %d: query failed: %v", r, err)
					return
				}
				atomic.AddInt64(&rep.Reads, 1)
				mu.Lock()
				for _, it := range items {
					if it.Node != nil && refused[it.Node.Name()] {
						name := it.Node.Name()
						mu.Unlock()
						violate("reader %d: observed rolled-back write %s", r, name)
						return
					}
				}
				mu.Unlock()
			}
		}(r)
	}

	// The seeded fault schedule. Rounds alternate rate windows, targeted
	// single-operation faults, and (every OutageEvery rounds) a standing
	// outage with its heal timed for MTTR.
	var mttrSum time.Duration
	for round := 0; ffs.Injected() < int64(cfg.Events); round++ {
		if v := violence.Load(); v != nil {
			break
		}
		switch {
		case cfg.OutageEvery > 0 && round%cfg.OutageEvery == cfg.OutageEvery-1:
			rep.Outages++
			ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
			time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
			ffs.Clear()
			healStart := time.Now()
			if !awaitHealthy(db, 10*time.Second) {
				violate("outage %d: database did not heal (health=%v)", rep.Outages, db.Health())
			}
			mttrSum += time.Since(healStart)
		case rng.Intn(2) == 0:
			// Rate window: a slice of all durability operations fails.
			errs := []error{vfs.ErrIO, vfs.ErrDiskFull}
			ffs.SetRate(cfg.Rate, errs[rng.Intn(len(errs))])
			time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
			ffs.SetRate(0, nil)
		default:
			// Targeted burst: the next few operations fail, some partially.
			base := ffs.Ops()
			for k := int64(0); k < int64(1+rng.Intn(4)); k++ {
				f := vfs.Fault{Err: vfs.ErrIO}
				if rng.Intn(3) == 0 {
					f.PartialFrac = rng.Float64()
				}
				ffs.Schedule(base+k, f)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Wind down: clear every fault source, stop the workload, then let the
	// database heal. In that order: a commit that absorbed a fault just before
	// the sources were cleared reports it — and degrades the database — only
	// once its retries are spent and its rollback is done, which under -race
	// is long after Health() was last seen Healthy. With every writer
	// returned, whatever was going to degrade has, and Healthy means healed.
	ffs.SetRate(0, nil)
	ffs.Clear()
	close(stop)
	wg.Wait()
	if !awaitHealthy(db, 10*time.Second) {
		violate("database did not return to Healthy after faults cleared (health=%v)", db.Health())
	}
	rep.Events = ffs.Injected()
	rep.Elapsed = time.Since(start)
	if rep.Outages > 0 {
		rep.MTTRMillis = float64(mttrSum.Milliseconds()) / float64(rep.Outages)
	}
	info := db.HealthInfo()
	rep.Degrades = info.Degrades - baseInfo.Degrades
	rep.Heals = info.Heals - baseInfo.Heals
	rep.Retries = retriesNow() - baseRetries
	if v := violence.Load(); v != nil {
		return rep, errors.New("chaostest: " + *v)
	}

	// A post-heal write must commit: the serving path is fully restored.
	root := db.NodeByID(docID)
	if _, err := db.AddElementText(root, "post-chaos", chaosColor, "v"); err != nil {
		return rep, fmt.Errorf("chaostest: post-heal commit failed: %w", err)
	}
	acked["post-chaos"] = true
	rep.Writes++
	rep.Acked++
	if err := db.Close(); err != nil {
		return rep, fmt.Errorf("chaostest: close: %w", err)
	}

	// Differential verification: recover the directory on a clean filesystem
	// and compare against the ack log. Healing resealed the log around the
	// committed state, so recovery must see exactly the acked set.
	db2, err := colorful.Open(cfg.Dir, chaosColor)
	if err != nil {
		return rep, fmt.Errorf("chaostest: recovery failed: %w", err)
	}
	defer db2.Close()
	recovered := map[string]bool{}
	for _, n := range db2.TreeNodes(chaosColor) {
		if n.Kind() == core.KindElement && (strings.HasPrefix(n.Name(), "e-w") || n.Name() == "post-chaos") {
			recovered[n.Name()] = true
		}
	}
	for name := range acked {
		if !recovered[name] {
			return rep, fmt.Errorf("chaostest: acked commit %s lost (recovered %d of %d)", name, len(recovered), len(acked))
		}
	}
	for name := range recovered {
		if refused[name] {
			return rep, fmt.Errorf("chaostest: rolled-back write %s resurrected by recovery", name)
		}
		if !acked[name] {
			return rep, fmt.Errorf("chaostest: recovery invented write %s never acknowledged", name)
		}
	}
	return rep, nil
}

// awaitHealthy polls the health state up to the deadline.
func awaitHealthy(db *colorful.DB, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for db.Health() != colorful.Healthy {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
