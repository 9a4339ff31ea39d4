package colorful_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/vfs"
)

// quickPolicy is a retry schedule that never really sleeps, so exhausting it
// under an injected outage is immediate.
func quickPolicy() *vfs.RetryPolicy {
	return &vfs.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Budget:      time.Second,
		Seed:        7,
		Sleep:       func(time.Duration) {},
	}
}

// openFaulty opens a durable database on a fault-injecting filesystem.
func openFaulty(t *testing.T, probe time.Duration) (*colorful.DB, *vfs.FaultFS, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	ffs := vfs.NewFaultFS(vfs.OS, 42)
	db, err := colorful.OpenOptions(dir, colorful.Options{
		FS: ffs, Retry: quickPolicy(), ProbeInterval: probe,
	}, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, ffs, dir
}

func countNodes(t *testing.T, db *colorful.DB, q string) int {
	t.Helper()
	items, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return len(items)
}

// awaitHealth polls until the database reaches the wanted state.
func awaitHealth(t *testing.T, db *colorful.DB, want colorful.Health) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != want {
		if time.Now().After(deadline) {
			t.Fatalf("health = %v, want %v (timed out)", db.Health(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDegradeRollsBackAndServesReads(t *testing.T) {
	db, ffs, dir := openFaulty(t, time.Hour) // probe effectively disabled
	buildMovies(t, db)
	if n := countNodes(t, db, `document("db")/{red}descendant::movie`); n != 1 {
		t.Fatalf("baseline movie count = %d, want 1", n)
	}

	// Disk outage: every durability operation fails hard.
	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	_, err := db.AddElement(db.Document(), "boom", "red")
	if err == nil {
		t.Fatal("mutation acknowledged during a disk outage")
	}
	if !errors.Is(err, colorful.ErrReadOnly) || !errors.Is(err, colorful.ErrDegraded) {
		t.Fatalf("failed commit error = %v, want ErrReadOnly wrapping ErrDegraded", err)
	}
	if got := db.Health(); got != colorful.DegradedReadOnly {
		t.Fatalf("health = %v, want DegradedReadOnly", got)
	}

	// Reads keep serving the committed state; the rolled-back element is
	// invisible.
	if n := countNodes(t, db, `document("db")/{red}descendant::boom`); n != 0 {
		t.Fatalf("rolled-back element visible to reads (%d hits)", n)
	}
	if n := countNodes(t, db, `document("db")/{red}descendant::movie`); n != 1 {
		t.Fatalf("committed state lost in rollback: movie count = %d", n)
	}

	// Later mutations are refused up front, through every mutation surface.
	if _, err := db.AddElement(db.Document(), "x", "red"); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("wrapper mutation during degraded mode: %v", err)
	}
	if _, err := db.Update(`
for $m in document("db")/{red}descendant::movie
update $m { insert <late>1</late> }`); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("update during degraded mode: %v", err)
	}
	if err := db.AddDatabaseColor("blue"); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("AddDatabaseColor during degraded mode: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("Checkpoint during degraded mode: %v", err)
	}

	info := db.HealthInfo()
	if info.State != colorful.DegradedReadOnly || info.Degrades != 1 || info.Cause == "" {
		t.Fatalf("health info = %+v", info)
	}
	if db.DurabilityStats().Durable {
		t.Fatal("DurabilityStats reports Durable while degraded")
	}

	ffs.Clear()
	db.Close()

	// On disk: exactly the committed state, nothing of the rolled-back
	// mutation.
	db2 := reopen(t, dir, "red", "green")
	defer db2.Close()
	if n := countNodes(t, db2, `document("db")/{red}descendant::boom`); n != 0 {
		t.Fatalf("rolled-back element recovered from disk (%d hits)", n)
	}
	if n := countNodes(t, db2, `document("db")/{red}descendant::movie`); n != 1 {
		t.Fatalf("committed state lost on disk: movie count = %d", n)
	}
}

func TestHealRestoresWrites(t *testing.T) {
	db, ffs, dir := openFaulty(t, 2*time.Millisecond)
	buildMovies(t, db)

	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if _, err := db.AddElement(db.Document(), "boom", "red"); err == nil {
		t.Fatal("mutation acknowledged during a disk outage")
	}
	awaitHealth(t, db, colorful.DegradedReadOnly)

	// Outage ends; the probe notices and heals.
	ffs.Clear()
	awaitHealth(t, db, colorful.Healthy)
	if info := db.HealthInfo(); info.Heals != 1 || info.Cause != "" {
		t.Fatalf("health info after heal = %+v", info)
	}
	if !db.DurabilityStats().Durable {
		t.Fatal("healed database not durable")
	}

	// Writes work again and land on disk.
	if _, err := db.AddElementText(db.Document(), "post-heal", "red", "ok"); err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
	db.Close()

	db2 := reopen(t, dir, "red", "green")
	defer db2.Close()
	if n := countNodes(t, db2, `document("db")/{red}descendant::post-heal`); n != 1 {
		t.Fatalf("post-heal commit lost: %d hits", n)
	}
	if n := countNodes(t, db2, `document("db")/{red}descendant::boom`); n != 0 {
		t.Fatalf("rolled-back element recovered from disk (%d hits)", n)
	}
}

// ckptFaultFS fails every checkpoint install — the Create of a
// *.ckpt.tmp — with a permanent error while armed.
type ckptFaultFS struct {
	vfs.FS
	armed atomic.Bool
}

func (f *ckptFaultFS) Create(name string) (vfs.File, error) {
	if f.armed.Load() && strings.HasSuffix(name, ".ckpt.tmp") {
		return nil, fmt.Errorf("create %s: %w", filepath.Base(name), vfs.Permanent(vfs.ErrIO))
	}
	return f.FS.Create(name)
}

// TestFailedAutoCheckpointKeepsCommit: the commit that crosses
// CheckpointBytes is already in the WAL when its checkpoint fails, so it stays
// acknowledged and visible; the database degrades with the checkpoint error
// as the cause, refuses the next mutation, heals once checkpoints install
// again, and the commit survives a reopen.
func TestFailedAutoCheckpointKeepsCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	fs := &ckptFaultFS{FS: vfs.OS}
	fs.armed.Store(true)
	db, err := colorful.OpenOptions(dir, colorful.Options{
		FS: fs, CheckpointBytes: 2048, Retry: quickPolicy(), ProbeInterval: 2 * time.Millisecond,
	}, "red")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	root, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; db.Health() == colorful.Healthy; n++ {
		if n == 1000 {
			t.Fatal("no commit crossed the checkpoint threshold")
		}
		if _, err := db.AddElementText(root, "item", "red", fmt.Sprintf("payload-%04d", n)); err != nil {
			t.Fatalf("commit %d: %v", n, err)
		}
	}
	last := fmt.Sprintf(`document("db")/{red}descendant::item[. = "payload-%04d"]`, n-1)
	if got := countNodes(t, db, last); got != 1 {
		t.Fatalf("the commit that triggered the checkpoint is not visible (%d hits)", got)
	}
	if got := countNodes(t, db, `document("db")/{red}descendant::item`); got != n {
		t.Fatalf("%d items visible after the degrade, want %d", got, n)
	}
	info := db.HealthInfo()
	if info.State != colorful.DegradedReadOnly || info.Degrades != 1 || !strings.Contains(info.Cause, ".ckpt.tmp") {
		t.Fatalf("health info = %+v, want degraded by the checkpoint install", info)
	}
	if _, err := db.AddElement(db.Document(), "late", "red"); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("mutation after the failed checkpoint: %v, want ErrReadOnly", err)
	}

	fs.armed.Store(false)
	awaitHealth(t, db, colorful.Healthy)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, dir, "red")
	defer db2.Close()
	if got := countNodes(t, db2, last); got != 1 {
		t.Fatalf("the commit that triggered the checkpoint was lost on reopen (%d hits)", got)
	}
	if got := countNodes(t, db2, `document("db")/{red}descendant::item`); got != n {
		t.Fatalf("%d items recovered, want %d", got, n)
	}
}

// TestSessionsAcrossHealthTransitions drives sessions and prepared
// statements through degrade and heal: reads keep working in every state,
// constructor queries are refused while degraded, and everything recovers
// after the heal. Concurrent readers run throughout (the -race interlock).
func TestSessionsAcrossHealthTransitions(t *testing.T) {
	db, ffs, _ := openFaulty(t, 2*time.Millisecond)
	buildMovies(t, db)

	s := db.Session()
	defer s.Close()
	stmt, err := s.Prepare(`document("db")/{red}descendant::movie`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	// Background readers across all transitions.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErr := make(chan error, 1)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if items, err := stmt.Query(); err != nil {
					select {
					case readErr <- fmt.Errorf("stmt during transition: %w", err):
					default:
					}
					return
				} else if len(items) != 1 {
					select {
					case readErr <- fmt.Errorf("stmt saw %d movies, want 1", len(items)):
					default:
					}
					return
				}
			}
		}()
	}

	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if _, err := db.Update(`
for $g in document("db")/{red}descendant::movie-genre
update $g { insert <fails>1</fails> }`); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("update during outage: %v", err)
	}
	awaitHealth(t, db, colorful.DegradedReadOnly)

	// Session reads and prepared statements still serve while degraded; a
	// constructor query (which must mutate) is refused.
	if items, err := s.Query(`document("db")/{red}descendant::movie`); err != nil || len(items) != 1 {
		t.Fatalf("session read while degraded: %d items, %v", len(items), err)
	}
	if _, err := s.Query(`<orphan/>`); !errors.Is(err, colorful.ErrReadOnly) {
		t.Fatalf("constructor query while degraded: %v", err)
	}

	ffs.Clear()
	awaitHealth(t, db, colorful.Healthy)
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}

	// The same session and statement outlive the transition.
	if _, err := db.AddElementText(db.Document(), "alive", "red", "yes"); err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
	if items, err := stmt.Query(); err != nil || len(items) != 1 {
		t.Fatalf("stmt after heal: %d items, %v", len(items), err)
	}
	if items, err := s.Query(`document("db")/{red}descendant::alive`); err != nil || len(items) != 1 {
		t.Fatalf("session read after heal: %d items, %v", len(items), err)
	}
}

// TestScrubberDetectsAndHeals runs the online scrubber against real bit-rot:
// a byte flipped in the live checkpoint is reported (counter, location) and
// healed by the fresh checkpoint the scrubber triggers, after which passes
// are clean again.
func TestScrubberDetectsAndHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.OpenOptions(dir, colorful.Options{
		ProbeInterval: time.Millisecond,
		ScrubInterval: time.Millisecond,
	}, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildMovies(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	awaitInfo := func(what string, ok func(colorful.HealthInfo) bool) colorful.HealthInfo {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			info := db.HealthInfo()
			if ok(info) {
				return info
			}
			if time.Now().After(deadline) {
				t.Fatalf("scrubber never %s: %+v", what, info)
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitInfo("completed a pass", func(i colorful.HealthInfo) bool { return i.ScrubPasses > 0 })

	// Rot the live checkpoint.
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint on disk: %v", err)
	}
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(ckpts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	info := awaitInfo("reported the corruption", func(i colorful.HealthInfo) bool { return i.ScrubCorruptions > 0 })
	if info.LastCorruption == "" {
		t.Fatalf("corruption counted but not located: %+v", info)
	}

	// The triggered checkpoint supersedes the damaged file; passes go clean
	// again (corruption count stops moving across a full pass).
	awaitInfo("healed", func(i colorful.HealthInfo) bool {
		base := db.HealthInfo()
		time.Sleep(10 * time.Millisecond)
		after := db.HealthInfo()
		return after.ScrubPasses > base.ScrubPasses && after.ScrubCorruptions == base.ScrubCorruptions
	})
	if db.Health() != colorful.Healthy {
		t.Fatalf("health after scrub heal = %v", db.Health())
	}
}

// TestFailedIsTerminal reaches Failed through a commit too big for the
// change log (one attach of a detached subtree with more elements than the
// log holds): it cannot be separated for rollback, so its only commit path
// is a full checkpoint, and under a standing outage that checkpoint fails.
// The database then refuses every mutation with ErrFailed, keeps answering
// queries, and stays failed after the disk comes back.
func TestFailedIsTerminal(t *testing.T) {
	db, ffs, _ := openFaulty(t, 2*time.Millisecond)
	buildMovies(t, db)

	const elems = 1<<14 + 1 // one more than the change log holds
	bulk, err := db.NewElement("bulk", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < elems; i++ {
		el, err := db.NewElement("b", "red")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(bulk, el, "red"); err != nil {
			t.Fatalf("building the detached subtree: %v", err)
		}
	}

	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if err := db.Append(db.Document(), bulk, "red"); !errors.Is(err, colorful.ErrFailed) {
		t.Fatalf("overflowing commit under an outage: %v, want ErrFailed", err)
	}
	if got := db.Health(); got != colorful.Failed {
		t.Fatalf("health = %v, want Failed", got)
	}
	_, err = db.AddElement(db.Document(), "late", "red")
	if !errors.Is(err, colorful.ErrFailed) {
		t.Fatalf("mutation after failure: %v, want ErrFailed", err)
	}
	if n := countNodes(t, db, `document("db")/{red}descendant::movie`); n != 1 {
		t.Fatalf("query after failure: movie count = %d, want 1", n)
	}
	if info := db.HealthInfo(); info.State != colorful.Failed || info.Cause == "" {
		t.Fatalf("health info after failure = %+v", info)
	}

	// The outage clears; the probe watches only a degraded database, so
	// Failed stays.
	ffs.Clear()
	time.Sleep(50 * time.Millisecond)
	if info := db.HealthInfo(); info.State != colorful.Failed || info.Heals != 0 {
		t.Fatalf("health info after the outage cleared = %+v", info)
	}
	if _, err := db.AddElement(db.Document(), "later", "red"); !errors.Is(err, colorful.ErrFailed) {
		t.Fatalf("mutation after the outage cleared: %v, want ErrFailed", err)
	}
}

// TestDegradeSurvivesTransientOnly verifies the boundary between retry and
// degrade: a burst of transient faults shorter than the retry schedule is
// absorbed invisibly — the commit succeeds, the database stays healthy.
func TestDegradeSurvivesTransientOnly(t *testing.T) {
	db, ffs, dir := openFaulty(t, time.Hour)
	buildMovies(t, db)

	// Fail the next two durability operations with a retryable error.
	ffs.Schedule(ffs.Ops(), vfs.Fault{Err: vfs.ErrIO})
	ffs.Schedule(ffs.Ops()+1, vfs.Fault{Err: vfs.ErrIO})
	if _, err := db.AddElementText(db.Document(), "survivor", "red", "ok"); err != nil {
		t.Fatalf("commit with transient faults: %v", err)
	}
	if got := db.Health(); got != colorful.Healthy {
		t.Fatalf("health after absorbed faults = %v, want Healthy", got)
	}
	if ffs.Injected() == 0 {
		t.Fatal("no fault was actually injected")
	}
	db.Close()

	db2 := reopen(t, dir, "red", "green")
	defer db2.Close()
	if n := countNodes(t, db2, `document("db")/{red}descendant::survivor`); n != 1 {
		t.Fatalf("retried commit lost: %d hits", n)
	}
}

// TestDebugHealthEndpoint: /debug/health serves the state name and the
// degrade cause over HTTP, for a healthy and then a degraded database.
func TestDebugHealthEndpoint(t *testing.T) {
	db, ffs, _ := openFaulty(t, time.Hour)
	srv, err := db.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/debug/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/health = %d, want 200", resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if m := get(); m["state"] != "healthy" {
		t.Fatalf(`state = %v, want "healthy" (%v)`, m["state"], m)
	}

	ffs.SetStanding(vfs.Permanent(vfs.ErrIO))
	if _, err := db.AddElement(db.Document(), "boom", "red"); err == nil {
		t.Fatal("commit under a standing outage succeeded")
	}
	m := get()
	if m["state"] != "degraded-readonly" {
		t.Fatalf(`state = %v, want "degraded-readonly" (%v)`, m["state"], m)
	}
	if cause, _ := m["cause"].(string); cause == "" {
		t.Fatalf("degraded health report carries no cause: %v", m)
	}
	if m["degrades"].(float64) != 1 {
		t.Fatalf("degrades = %v, want 1", m["degrades"])
	}
	ffs.Clear()
}
