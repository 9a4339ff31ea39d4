package colorful_test

import (
	"errors"
	"path/filepath"
	"testing"

	"colorfulxml/colorful"
)

// buildMovies applies the same small workload to any DB — used to grow both
// a durable database and its in-memory twin for isomorphism checks.
func buildMovies(t *testing.T, db *colorful.DB) {
	t.Helper()
	doc := db.Document()
	genres, err := db.AddElement(doc, "movie-genres", "red")
	if err != nil {
		t.Fatal(err)
	}
	comedy, err := db.AddElement(genres, "movie-genre", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(comedy, "name", "red", "Comedy"); err != nil {
		t.Fatal(err)
	}
	movie, err := db.AddElement(comedy, "movie", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(movie, "name", "red", "All About Eve"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetAttribute(movie, "year", "1950"); err != nil {
		t.Fatal(err)
	}
	awards, err := db.AddElement(doc, "movie-awards", "green")
	if err != nil {
		t.Fatal(err)
	}
	oscar, err := db.AddElement(awards, "movie-award", "green")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Adopt(oscar, movie, "green"); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, dir string, colors ...colorful.Color) *colorful.DB {
	t.Helper()
	db, err := colorful.Open(dir, colors...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenPersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	// Update-language mutation commits through the same WAL hook.
	if _, err := db.Update(`
for $m in document("db")/{green}descendant::movie
update $m { insert <votes>14</votes> }`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	twin := colorful.New("red", "green")
	buildMovies(t, twin)
	if _, err := twin.Update(`
for $m in document("db")/{green}descendant::movie
update $m { insert <votes>14</votes> }`); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dir)
	defer got.Close()
	if !got.Recovery().TornTail && got.Recovery().RecordsReplayed == 0 && !got.Recovery().CheckpointLoaded {
		t.Fatalf("nothing recovered: %+v", got.Recovery())
	}
	if ok, why := colorful.Isomorphic(twin, got); !ok {
		t.Fatalf("recovered database differs: %s", why)
	}
	// The recovered database keeps serving queries.
	out, err := got.Query(`for $v in document("db")/{green}descendant::votes return $v`)
	if err != nil || len(out) != 1 || out[0].Value != "14" {
		t.Fatalf("votes after recovery = %v, %v", out, err)
	}
}

func TestConstructorQueryIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	if _, err := db.Query(`
for $m in document("db")/{red}descendant::movie[contains({red}child::name, "Eve")]
return createColor(black, <m-name>{ $m/{red}child::name }</m-name>)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	if !got.HasColor("black") {
		t.Fatalf("constructor-created color lost; colors = %v", got.Colors())
	}
	out, err := got.Query(`for $n in document("db")/{black}child::m-name return $n`)
	if err != nil || len(out) != 1 || out[0].Value != "All About Eve" {
		t.Fatalf("constructed node after recovery = %v, %v", out, err)
	}
}

func TestComplexChangeForcesCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red")
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.AddElementText(root, "item", "red", "b")
	if err != nil {
		t.Fatal(err)
	}
	if db.DurabilityStats().Checkpoints != 0 {
		t.Fatalf("unexpected early checkpoint: %+v", db.DurabilityStats())
	}
	// A positional insert has no incremental WAL representation
	// (ChangeComplex) and must force a synchronous checkpoint.
	a, err := db.NewElement("item", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Database.AppendText(a, "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBefore(root, a, b, "red"); err != nil {
		t.Fatal(err)
	}
	if got := db.DurabilityStats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1 after a complex change", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dir)
	defer got.Close()
	if !got.Recovery().CheckpointLoaded {
		t.Fatalf("recovery ignored the checkpoint: %+v", got.Recovery())
	}
	out, err := got.Query(`for $i in document("db")/{red}child::list/{red}child::item return $i`)
	if err != nil || len(out) != 2 {
		t.Fatalf("items = %v, %v", out, err)
	}
	if out[0].Value != "a" || out[1].Value != "b" {
		t.Fatalf("positional insert order lost: %q, %q", out[0].Value, out[1].Value)
	}
}

func TestExplicitCheckpointTruncatesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	buildMovies(t, db)
	before := db.DurabilityStats().WALBytes
	if before == 0 {
		t.Fatal("workload wrote no WAL bytes")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.DurabilityStats()
	if after.WALBytes != 0 || after.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v (WAL before: %d)", after, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	st := got.Recovery()
	if !st.CheckpointLoaded || st.RecordsReplayed != 0 {
		t.Fatalf("recovery after clean checkpoint: %+v", st)
	}
	twin := colorful.New("red", "green")
	buildMovies(t, twin)
	if ok, why := colorful.Isomorphic(twin, got); !ok {
		t.Fatalf("recovered database differs: %s", why)
	}
}

func TestClosedDatabaseRejectsMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.Open(dir, "red")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := db.AddElement(db.Document(), "x", "red"); !errors.Is(err, colorful.ErrClosed) {
		t.Fatalf("mutation on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, colorful.ErrClosed) {
		t.Fatalf("checkpoint on closed DB: %v, want ErrClosed", err)
	}
	if db.DurabilityStats().Durable {
		t.Fatal("closed DB still reports durable")
	}
}

// TestAutoCheckpointByWALSize: the commit that takes the WAL past
// CheckpointBytes installs the checkpoint before it returns — the count moves
// and the log is empty right then, not at some later point.
func TestAutoCheckpointByWALSize(t *testing.T) {
	const threshold = 2048
	dir := filepath.Join(t.TempDir(), "db")
	db, err := colorful.OpenOptions(dir, colorful.Options{CheckpointBytes: threshold}, "red")
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.AddElement(db.Document(), "list", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		before := db.DurabilityStats()
		if _, err := db.AddElementText(root, "item", "red", "payload-payload-payload"); err != nil {
			t.Fatal(err)
		}
		after := db.DurabilityStats()
		if after.WALBytes >= threshold {
			t.Fatalf("commit %d left %d WAL bytes, at or past the %d-byte threshold", i, after.WALBytes, threshold)
		}
		if crossed := after.WALBytes < before.WALBytes; crossed != (after.Checkpoints == before.Checkpoints+1) {
			t.Fatalf("commit %d: WAL %d -> %d bytes but checkpoints %d -> %d", i,
				before.WALBytes, after.WALBytes, before.Checkpoints, after.Checkpoints)
		}
		if after.Checkpoints > before.Checkpoints && after.WALBytes != 0 {
			t.Fatalf("commit %d checkpointed but left %d WAL bytes", i, after.WALBytes)
		}
	}
	// 200 * ~40-byte records far exceeds the 2 KiB threshold.
	if db.DurabilityStats().Checkpoints == 0 {
		t.Fatal("auto-checkpoint never fired")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, dir)
	defer got.Close()
	if !got.Recovery().CheckpointLoaded {
		t.Fatalf("recovery found no checkpoint: %+v", got.Recovery())
	}
	out, err := got.Query(`for $i in document("db")/{red}child::list/{red}child::item return $i`)
	if err != nil || len(out) != 200 {
		t.Fatalf("items after recovery = %d, %v", len(out), err)
	}
}
