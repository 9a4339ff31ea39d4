package crashtest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"colorfulxml/colorful"
	"colorfulxml/internal/vfs"
)

// The harness: run the workload against a durable database whose filesystem
// loses power after a randomly chosen number of written bytes, reopen, and
// differentially verify the recovered state against in-memory shadows. A
// crash may land anywhere — mid WAL record, between a checkpoint's page
// image and its manifest rename, during garbage collection — and recovery
// must always land on a committed statement boundary.

// points returns how many random crash points to test: CRASHTEST_POINTS
// overrides, -short trims.
func points(t *testing.T) int {
	if s := os.Getenv("CRASHTEST_POINTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CRASHTEST_POINTS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 25
	}
	return 200
}

// nosyncFS neutralizes fsync: in the CrashFS model every byte written before
// the crash is durable and everything after is refused, so real fsyncs add
// nothing to the model — only minutes to the harness.
type nosyncFS struct{ vfs.FS }

func (n nosyncFS) Create(name string) (vfs.File, error) {
	f, err := n.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

func (n nosyncFS) SyncDir(string) error { return nil }

type nosyncFile struct{ vfs.File }

func (f nosyncFile) Sync() error { return nil }

// harnessOpts uses a small pool and a tiny auto-checkpoint threshold so a
// short workload still crosses every durability code path many times, and
// turns on the invariant sweep: every open validates the recovered state and
// every incremental snapshot apply re-audits the core database.
func harnessOpts(fs vfs.FS) colorful.Options {
	return colorful.Options{FS: fs, CheckpointBytes: 4096, ValidateInvariants: true}
}

// runWorkload feeds w to a durable database over fs until a statement fails
// (or the workload ends), then closes the database. acked counts statements
// whose mutator acknowledged success; attempted additionally counts a
// statement that was in flight when the failure hit.
func runWorkload(dir string, fs vfs.FS, w *Workload) (acked, attempted int, err error) {
	db, err := colorful.OpenOptions(dir, harnessOpts(fs), w.Colors...)
	if err != nil {
		return 0, 0, err
	}
	nodes := map[string]*colorful.Node{}
	for _, s := range w.Stmts {
		if aerr := Apply(db, nodes, s); aerr != nil {
			db.Close() //nolint:errcheck // the crash supersedes
			return acked, acked + 1, aerr
		}
		acked++
	}
	return acked, acked, db.Close()
}

// verifyRecovered opens dir with a healthy filesystem and checks the
// committed-prefix property: the recovered state must be isomorphic to the
// shadow after k statements for some k in [acked, attempted] — and a second
// recovery must land on the same k (idempotence).
func verifyRecovered(t *testing.T, dir string, w *Workload, acked, attempted int) {
	t.Helper()
	rec, err := colorful.OpenOptions(dir, colorful.Options{ValidateInvariants: true}, w.Colors...)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if verr := rec.Validate(); verr != nil {
		rec.Close()
		t.Fatalf("recovered state violates core invariants: %v", verr)
	}
	match, firstWhy := -1, ""
	for k := acked; k <= attempted; k++ {
		ok, why := colorful.Isomorphic(Replay(w, k), rec)
		if ok {
			match = k
			break
		}
		if k == acked {
			firstWhy = why
		}
	}
	if match < 0 {
		rec.Close()
		t.Fatalf("recovered state matches no committed prefix in [%d, %d]: %s\nrecovery: %+v",
			acked, attempted, firstWhy, rec.Recovery())
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("closing recovered database: %v", err)
	}
	again, err := colorful.OpenOptions(dir, colorful.Options{ValidateInvariants: true}, w.Colors...)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer again.Close()
	if verr := again.Validate(); verr != nil {
		t.Fatalf("second recovery violates core invariants: %v", verr)
	}
	if ok, why := colorful.Isomorphic(Replay(w, match), again); !ok {
		t.Fatalf("recovery is not idempotent (first landed on prefix %d): %s", match, why)
	}
}

func TestCrashPoints(t *testing.T) {
	w := Generate(0xC010F, 140)
	base := t.TempDir()

	// Dry run on an unlimited (counting) filesystem: proves the workload is
	// valid, measures the total write cost, and pins the oracle — a clean
	// run must recover to exactly the full shadow.
	dry := vfs.NewCrashFS(nosyncFS{vfs.OS}, -1)
	dryDir := filepath.Join(base, "dry")
	acked, attempted, err := runWorkload(dryDir, dry, w)
	if err != nil {
		t.Fatalf("crash-free run failed: %v", err)
	}
	if acked != len(w.Stmts) {
		t.Fatalf("crash-free run acked %d of %d statements", acked, len(w.Stmts))
	}
	verifyRecovered(t, dryDir, w, acked, attempted)
	total := dry.BytesWritten()
	if total == 0 {
		t.Fatal("workload wrote no bytes")
	}

	n := points(t)
	t.Logf("testing %d crash points over %d written bytes", n, total)
	rng := rand.New(rand.NewSource(0xDECAF))
	for i := 0; i < n; i++ {
		budget := 1 + rng.Int63n(total)
		dir := filepath.Join(base, fmt.Sprintf("crash-%03d", i))
		cfs := vfs.NewCrashFS(nosyncFS{vfs.OS}, budget)
		acked, attempted, err := runWorkload(dir, cfs, w)
		if err != nil && !cfs.Crashed() {
			t.Fatalf("point %d (budget %d): failure without a crash after %d acks: %v",
				i, budget, acked, err)
		}
		verifyRecovered(t, dir, w, acked, attempted)
	}
}

// TestCrashDuringRecovery crashes the recovery itself: every write budget
// small enough to interrupt the reopen of a populated directory must leave
// it recoverable by the next (healthy) open, with nothing lost.
func TestCrashDuringRecovery(t *testing.T) {
	w := Generate(0xBEEF, 80)
	base := t.TempDir()
	master := filepath.Join(base, "master")
	if acked, _, err := runWorkload(master, vfs.NewCrashFS(nosyncFS{vfs.OS}, -1), w); err != nil || acked != len(w.Stmts) {
		t.Fatalf("building master directory: acked %d, %v", acked, err)
	}
	full := Replay(w, len(w.Stmts))
	for budget := int64(1); budget <= 32; budget++ {
		dir := filepath.Join(base, fmt.Sprintf("rec-%02d", budget))
		copyDir(t, master, dir)
		cfs := vfs.NewCrashFS(nosyncFS{vfs.OS}, budget)
		db, err := colorful.OpenOptions(dir, harnessOpts(cfs), w.Colors...)
		if err == nil {
			db.Close() //nolint:errcheck // may report a post-open crash
		} else if !cfs.Crashed() {
			t.Fatalf("budget %d: reopen failed without a crash: %v", budget, err)
		}
		rec, err := colorful.OpenOptions(dir, colorful.Options{ValidateInvariants: true}, w.Colors...)
		if err != nil {
			t.Fatalf("budget %d: recovery after crashed recovery failed: %v", budget, err)
		}
		if verr := rec.Validate(); verr != nil {
			t.Fatalf("budget %d: recovered state violates core invariants: %v", budget, verr)
		}
		if ok, why := colorful.Isomorphic(full, rec); !ok {
			t.Fatalf("budget %d: crashed recovery lost data: %s", budget, why)
		}
		rec.Close()
	}
}

// TestWorkloadDeterminism pins the property the whole harness rests on: the
// same seed yields the same statements, and replaying them twice yields
// isomorphic databases.
func TestWorkloadDeterminism(t *testing.T) {
	a, b := Generate(7, 60), Generate(7, 60)
	if len(a.Stmts) != len(b.Stmts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Stmts), len(b.Stmts))
	}
	for i := range a.Stmts {
		if a.Stmts[i] != b.Stmts[i] {
			t.Fatalf("statement %d differs: %+v vs %+v", i, a.Stmts[i], b.Stmts[i])
		}
	}
	if ok, why := colorful.Isomorphic(Replay(a, 60), Replay(b, 60)); !ok {
		t.Fatalf("replays diverge: %s", why)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
